import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from spectral_edge import transition
from spectral_edge.equilibrium import solve_support
from spectral_edge.potential import eynard_potential
from spectral_edge.transition import (
    G_fn,
    H_fn,
    c_of_a,
    convex_type,
    critical_a,
    fluct_scale,
    in_A_V,
    maximizer_set,
    phase_diagram,
    scan,
    scan_upper_bound,
    secondary_criticals,
    switch_band,
    x0_of,
)

from conftest import gue_g_prime


def gue_g_second(x: float) -> float:
    return 0.5 * (1.0 - x / math.sqrt(x * x - 4.0))


def closed_form_critical_a(eq, guess: float) -> float:
    """a_c as the root of phi(a) = max_{x >= c} G(x) - H(c), with every piece
    from the closed forms right of the edge e:

        G'(x) = a - (V'(x) + q(x)) / 2,   g'(x) = (V'(x) - q(x)) / 2,
        q(x) = h(x) sqrt((x - b0)(x - e)),   G(c) - H(c) = -int_e^c q,

    integrated with ``quad`` from c(a).  Bracketed within 2% of ``guess``.
    """
    e, b0 = eq.a1, eq.b0
    h = np.polynomial.Polynomial(eq.h_coeffs)
    Vp = np.polynomial.Polynomial(eq.V.coefficients).deriv()
    half = 0.5 * Vp(e)

    def q(x):
        return h(x) * np.sqrt(np.maximum((x - b0) * (x - e), 0.0))

    def phi(a):
        c = e if a >= half else brentq(lambda x: 0.5 * (Vp(x) - q(x)) - a, e, e + 20.0,
                                       xtol=1e-15)
        dG = lambda x: a - 0.5 * (Vp(x) + q(x))
        xs = np.linspace(c + 1e-12, e + 10.0, 4001)
        d = dG(xs)
        tops = [brentq(dG, xs[i], xs[i + 1], xtol=1e-15)
                for i in np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0))]
        gain = max([0.0] + [quad(dG, c, x, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                            for x in tops])
        return gain - quad(q, e, c, epsabs=1e-13, epsrel=1e-13)[0]

    return brentq(phi, 0.98 * guess, min(1.02 * guess, half), xtol=1e-13)


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


@pytest.fixture(scope="module")
def eq_eynard_1e3():
    return solve_support(eynard_potential(3.0, 1e-3))


def _eq_by_name(name, request):
    return request.getfixturevalue({"gue": "eq_gue", "quartic": "eq_quartic",
                                    "eynard(3,0.02)": "eq_eynard", "eynard(3,1e-3)": "eq_eynard_1e3",
                                    "two-shelf": "eq_shelf"}[name])


def dense_maxima_cells(eq, a, num=20001):
    """Cells [x_i, x_i+1] of a dense grid from c(a) and the float after it to
    the certified tail where the closed form G' = a - (V' + h sqrt((x - b0)(x - e))) / 2
    falls from + to <= 0."""
    c = c_of_a(eq, a)
    lo, X = math.nextafter(c, math.inf), scan_upper_bound(eq, a)
    if X <= lo:
        return []
    xs = np.unique(np.concatenate([[c, lo], lo + np.logspace(-12, math.log10(X - lo), 400),
                                   np.linspace(lo, X, num)]))
    h = np.polynomial.Polynomial(eq.h_coeffs)
    Vp = np.polynomial.Polynomial(eq.V.coefficients).deriv()
    d = a - 0.5 * (Vp(xs) + h(xs) * np.sqrt((xs - eq.b0) * (xs - eq.a1)))
    return [(xs[i], xs[i + 1]) for i in np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0))]


class TestScanAgainstDenseGrid:
    @pytest.mark.parametrize("name", ["gue", "quartic", "eynard(3,0.02)", "eynard(3,1e-3)",
                                      "two-shelf"])
    def test_same_maxima_as_dense_sign_changes(self, name, request):
        # each maximum of the scan lies in its own + -> - cell of G' on a
        # dense grid, and every such cell holds one
        eq = _eq_by_name(name, request)
        a_c = critical_a(eq)
        half = 0.5 * eq.V.eval(eq.a1, 1)
        band = switch_band(eq)
        top = max(2.0 * half, band[1] + 0.3) if band else 2.0 * half
        tilts = list(np.linspace(0.4 * a_c, top, 19)) + [a_c + 1e-4, a_c + 1e-9]
        if band:    # tilts with two local maxima
            tilts += list(np.linspace(*band, 6)[1:-1])
        counts = []
        for a in tilts:
            cells = dense_maxima_cells(eq, a)
            xs = [x for x, _ in scan(eq, a).maxima]
            assert len(xs) == len(cells), (a, xs, cells)
            assert all(lo <= x <= hi for x, (lo, hi) in zip(xs, cells)), (a, xs, cells)
            counts.append(len(xs))
        assert max(counts) >= 2 if band else max(counts) == 1

    def test_crossing_left_of_c_is_not_a_maximum(self, eq_eynard_1e3):
        # at a = 0.2926, c(a) ~ 3.005 lies inside the last rising run of W,
        # which starts at ~2.924 and has W > a at c(a) already: that run's
        # crossing, a local maximum of G, lies left of c(a), outside the window
        eq, a = eq_eynard_1e3, 0.2926
        assert transition._rising_runs(eq)[-1][0] < c_of_a(eq, a)
        assert dense_maxima_cells(eq, a) == []
        assert scan(eq, a).maxima == ()

    @pytest.mark.parametrize("name", ["gue", "two-shelf"])
    def test_no_array_evaluation_once_runs_are_built(self, name, request, monkeypatch):
        # past the first call, a scan evaluates G' at single points only
        eq = _eq_by_name(name, request)
        scan(eq, 1.5)
        real = type(eq).g_deriv
        arrays = []

        def recording(self, z, m):
            if np.ndim(z) > 0:
                arrays.append((np.size(z), m))
            return real(self, z, m)

        monkeypatch.setattr(type(eq), "g_deriv", recording)
        for a in (0.5, 1.2, 1.5, 1.7, 2.5):
            scan(eq, a)
        assert arrays == []


class TestPhaseDiagramAgainstSweep:
    @pytest.mark.parametrize("name", ["two-shelf", "eynard(3,0.02)", "eynard(3,1e-3)"])
    def test_every_jump_is_a_listed_switch(self, name, request):
        # a dense sweep over the whole band above a_c: every jump of the
        # global maximizer is a listed switch and every switch a jump, with
        # two tied maximizers there
        eq = _eq_by_name(name, request)
        diagram = phase_diagram(eq)
        band = switch_band(eq)
        avals = np.linspace(diagram.a_c + 1e-6, band[1] + 0.5, 2000)
        x0 = np.array([x0_of(eq, a) for a in avals])
        jumps = set(np.flatnonzero(np.abs(np.diff(x0)) > 0.2).tolist())
        cells = {int(np.searchsorted(avals, a_star)) - 1 for a_star, _ in diagram.switches}
        assert jumps == cells
        assert len(cells) == len(diagram.switches)
        for a_star, _ in diagram.switches:
            assert len(maximizer_set(eq, a_star, tie_tol=1e-6)) == 2
        if name == "two-shelf":
            assert len(diagram.switches) == 1


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

    @pytest.mark.parametrize("name", ["eynard(3,0.02)", "two-shelf", "eynard(3,0.0001)",
                                      "eynard(3,0.001)"])
    def test_matches_closed_form_route(self, name, eq_shelf):
        eq = eq_shelf if name == "two-shelf" else solve_support(
            eynard_potential(3.0, float(name[len("eynard(3,"):-1])))
        a_c = critical_a(eq)
        assert abs(closed_form_critical_a(eq, a_c) - a_c) < 1e-10

    def test_eynard_root_takes_few_scans(self, eynard_pot, monkeypatch):
        # a fresh equilibrium: the session one may already hold its a_c
        eq = solve_support(eynard_pot)
        seen = []
        real_scan = transition.scan

        def counting_scan(eq, a):
            seen.append(a)
            return real_scan(eq, a)

        monkeypatch.setattr(transition, "scan", counting_scan)
        a_c = critical_a(eq)
        assert 0 < len(seen) <= 20
        # computed once per equilibrium: a second call scans nothing
        seen.clear()
        assert critical_a(eq) == a_c and seen == []
        # an explicit lower bracket searches afresh and finds the same root
        assert abs(critical_a(eq, a_lo=1e-3) - a_c) < 1e-12 and len(seen) > 0


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

    @pytest.mark.parametrize("name", ["gue", "quartic"])
    @pytest.mark.parametrize("eps", [1e-9, 1e-8])
    def test_maximizer_within_a_float_of_the_edge(self, name, eps, request):
        # just above a convex-type a_c the maximizer lies (a - a_c)^2-close to
        # the edge, less than one float right of it: W >= a already at the
        # float after e, and the maximum is reported there
        eq = _eq_by_name(name, request)
        a = critical_a(eq) + eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x0 = x0_of(eq, a)
            out = maximizer_set(eq, a)
        assert 0.0 < x0 - eq.a1 <= 1e-14
        assert out == [(x0, 1)]

    def test_argmax_monotone_convex(self, eq_gue):
        avals = np.linspace(1.05, 5.0, 9)
        xs = [x0_of(eq_gue, a) for a in avals]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestSecondaryCriticals:
    def test_convex_has_none(self, eq_gue):
        assert secondary_criticals(eq_gue, 1.05, 5.0) == []

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

    def test_shelf_switch_on_the_critical_range(self, eq_shelf):
        # the critical subcommand's default range, where a jump threshold
        # of the maximizer location missed the switch
        a_c = critical_a(eq_shelf)
        half = 0.5 * eq_shelf.V.eval(eq_shelf.a1, 1)
        jumps = secondary_criticals(eq_shelf, a_c + 1e-4, 3.0 * half)
        assert len(jumps) == 1
        assert abs(jumps[0] - 1.6874607344) < 1e-9

    def test_shelf_jump_detected(self, eq_shelf):
        a_c = critical_a(eq_shelf)
        jumps = secondary_criticals(eq_shelf, 1.35, 1.95)
        assert len(jumps) == 1
        a0 = jumps[0]
        assert a0 > a_c
        # the global maximizer genuinely jumps across a0
        assert x0_of(eq_shelf, a0 - 1e-4) < 6.0 < x0_of(eq_shelf, a0 + 1e-4)

    def test_one_value_for_every_range(self, eq_shelf):
        # both ranges read the one switch of the phase diagram
        a_c = critical_a(eq_shelf)
        half = 0.5 * eq_shelf.V.eval(eq_shelf.a1, 1)
        wide = secondary_criticals(eq_shelf, a_c + 1e-4, 3.0 * half)
        narrow = secondary_criticals(eq_shelf, 1.35, 1.95)
        assert wide == narrow == [phase_diagram(eq_shelf).switches[0][0]]

    def test_range_reaching_below_a_c(self, eq_eynard):
        # below a_c G may have no interior maximum at all; switches are only
        # sought above a_c, and eynard(3, 0.02) has none there
        assert secondary_criticals(eq_eynard, 0.2, 1.0) == []

    def test_tie_search_reports_both(self, eq_shelf):
        # tune the tilt until the top two maxima agree to below the tie
        # tolerance, then the maximizer set must contain both
        jumps = secondary_criticals(eq_shelf, 1.35, 1.95)
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


class TestSwitchBand:
    def test_convex_potentials_have_none(self, eq_gue, eq_quartic):
        assert switch_band(eq_gue) is None
        assert switch_band(eq_quartic) is None
        assert phase_diagram(eq_gue).switches == ()

    def test_shelf_band_holds_the_switch(self, eq_shelf):
        lo, hi = switch_band(eq_shelf)
        assert lo < 1.6874607344 < hi

    def test_band_bounds_the_two_maxima(self, eq_shelf, eq_eynard):
        # inside the band the scan finds two local maxima of G at some
        # tilts; just outside it never more than one
        for eq in (eq_shelf, eq_eynard):
            lo, hi = switch_band(eq)
            inside = [len(scan(eq, a).maxima) for a in np.linspace(lo, hi, 12)[1:-1]]
            assert max(inside) >= 2
            for a in (lo - 1e-3, hi + 1e-3, hi + 0.5):
                assert len(scan(eq, a).maxima) <= 1

    def test_eynard_band_ends(self, eq_eynard):
        # W = V' - g' rises from V'(e)/2 at the edge to one interior maximum,
        # falls, and rises again: the band runs from V'(e)/2 to that maximum,
        # found here on a dense grid
        e = eq_eynard.a1
        xs = np.linspace(e + 1e-6, e + 6.0, 200001)
        W = eq_eynard.V.eval(xs, 1) - eq_eynard.g_deriv(xs, 1)
        inner = W[1:-1]
        peaks = inner[(inner > W[:-2]) & (inner > W[2:])]
        lo, hi = switch_band(eq_eynard)
        assert lo == 0.5 * eq_eynard.V.eval(e, 1)
        assert len(peaks) == 1 and abs(peaks[0] - hi) < 1e-9


class TestProfiles:
    def test_eynard_critical_profile(self, eq_eynard):
        # at a_c the eynard potential is of non-convex type: a single simple
        # maximizer of G detached well to the right of the edge
        a_c = critical_a(eq_eynard)
        assert not convex_type(eq_eynard, a_c)
        out = maximizer_set(eq_eynard, a_c)
        assert len(out) == 1
        assert out[0][0] > eq_eynard.a1 + 0.5


def test_convex_type_split(eq_gue, eq_quartic, eq_eynard, eq_shelf):
    for eq in (eq_gue, eq_quartic):
        assert convex_type(eq, critical_a(eq))
    for eq in (eq_eynard, eq_shelf):
        assert not convex_type(eq, critical_a(eq))
