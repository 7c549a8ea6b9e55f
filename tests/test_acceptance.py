"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import cmath
import math
import time

import numpy as np
import pytest

from spectral_edge.equilibrium import check_regular
from spectral_edge.finitemodel import build_ortho, build_spiked, gap_probability, gap_probability_raw
from spectral_edge.limitlaws import (
    LimitLaw,
    c_alpha,
    c_alpha_contour,
    f0,
    f1,
    mixture_weights,
)
from spectral_edge.potential import GUE
from spectral_edge.sampler import (
    EdgeSample,
    McmcConfig,
    ks_distance,
    ks_two_sample,
    log_density_rank1,
    mcmc_sample,
    sample_gaussian_spiked,
)
from spectral_edge.specialfn import airy_ai, airy_ai_pair, gauss_legendre
from spectral_edge.transition import (
    G_fn,
    H_fn,
    c_of_a,
    critical_a,
    fluct_scale,
    in_A_V,
    x0_of,
)


# Criterion 5 compares the KS distance at n = 100, 200 and 400.  Every point
# uses the same draw count, chosen so that the smallest step of the KS bias
# per doubling of n (about 0.005) is at least 3 standard deviations of the
# difference of two KS values (one KS value spreads by ~0.007 at 4000 draws).
C5_SIZES = (100, 200, 400)
C5_DRAWS = 120000
C5_CALL_DRAWS = 20000   # reps * n stays inside the sampler's volume cap at n = 400
C5_SEED_BASE = 80


def _pooled_gaussian_sample(n, a):
    """C5_DRAWS spiked-Gaussian draws from calls with distinct fixed seeds."""
    calls = C5_DRAWS // C5_CALL_DRAWS
    seeds = [C5_SEED_BASE + int(10 * a) + 100 * n + 100000 * k for k in range(calls)]
    draws = [sample_gaussian_spiked(n, a, C5_CALL_DRAWS, seed=s).lambda_max for s in seeds]
    return EdgeSample(np.concatenate(draws), n=n, a=a, j=1, potential_label="gue",
                      seed=seeds[0], method="direct-gaussian")


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}{' -- ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


class TestAcceptance:
    def test_criterion_1_gue_closed_forms(self, eq_gue):
        t0 = time.time()
        checks = {
            "support": abs(eq_gue.b0 + 2.0) < 1e-10 and abs(eq_gue.a1 - 2.0) < 1e-10,
            "beta": abs(eq_gue.beta - 1.0) < 1e-8,
            "a_c": abs(critical_a(eq_gue) - 1.0) < 1e-6,
            "c(0.5)": abs(c_of_a(eq_gue, 0.5) - 2.5) < 1e-8,
            "x0(2)": abs(x0_of(eq_gue, 2.0) - 2.5) < 1e-8,
            "curvature": abs(fluct_scale(eq_gue, 2.0, x0_of(eq_gue, 2.0), 1) ** 2 - 4.0 / 3.0) < 1e-6,
        }
        elapsed = time.time() - t0
        ok = all(checks.values()) and elapsed < 10.0
        report(1, "GUE closed-form suite", ok,
               f"{checks}, {elapsed:.1f}s")

    def test_criterion_2_airy_identities(self):
        t0 = time.time()
        omega = cmath.exp(2j * math.pi / 3.0)
        rng = np.random.default_rng(2)
        worst_sum = 0.0
        for _ in range(50):
            z = complex(*rng.uniform(-3.5, 3.5, size=2))
            resid = airy_ai(z) + omega * airy_ai(omega * z) + omega ** 2 * airy_ai(omega ** 2 * z)
            worst_sum = max(worst_sum, abs(resid))
        rule = gauss_legendre(200, 0.0, 20.0)
        ai_vals, _ = airy_ai_pair(rule.nodes)
        third = abs(rule.integrate(ai_vals) - 1.0 / 3.0)
        rule40 = gauss_legendre(400, 0.0, 40.0)
        ai40, _ = airy_ai_pair(rule40.nodes)
        worst_cubic = 0.0
        for alpha in (-1.0, 0.3, 0.7, 1.0):
            w = (np.exp(alpha * rule40.nodes) + np.exp(omega * alpha * rule40.nodes)
                 + np.exp(omega ** 2 * alpha * rule40.nodes))
            val = np.dot(rule40.weights, ai40 * w)
            worst_cubic = max(worst_cubic, abs(val - math.exp(alpha ** 3 / 3.0)))
        worst_routes = 0.0
        for alpha in (-4.0, -1.0, 0.0, 0.5, 4.0):
            for xi in (-2.0, -1.0, 0.0, 1.0, 3.0):
                worst_routes = max(worst_routes, abs(c_alpha(xi, alpha) - c_alpha_contour(xi, alpha)))
        elapsed = time.time() - t0
        ok = worst_sum < 1e-10 and third < 1e-8 and worst_cubic < 1e-8 \
            and worst_routes < 1e-5 and elapsed < 30.0
        report(2, "Airy identity suite", ok,
               f"sum {worst_sum:.1e}, int {third:.1e}, cubic {worst_cubic:.1e}, "
               f"routes {worst_routes:.1e}, {elapsed:.1f}s")

    def test_criterion_3_fredholm_convergence(self):
        t0 = time.time()
        worst0 = max(abs(f0(T, 40) - f0(T, 80)) for T in (-4.0, -2.0, 0.0, 2.0))
        worst1 = max(
            abs(f1(T, alpha, 40) - f1(T, alpha, 80))
            for T in (-4.0, -2.0, 0.0, 2.0)
            for alpha in (-1.0, 0.0, 1.0)
        )
        grid = np.linspace(-8.0, 4.0, 25)
        v0 = [f0(float(t)) for t in grid]
        mono0 = all(b >= a - 1e-10 for a, b in zip(v0, v0[1:]))
        mono1 = True
        for alpha in (-1.0, 0.0, 1.0):
            v1 = [f1(float(t), alpha) for t in grid]
            mono1 = mono1 and all(b >= a - 1e-10 for a, b in zip(v1, v1[1:]))
        elapsed = time.time() - t0
        ok = worst0 < 1e-8 and worst1 < 1e-7 and mono0 and mono1 and elapsed < 60.0
        report(3, "Fredholm two-resolution convergence", ok,
               f"f0 {worst0:.1e}, f1 {worst1:.1e}, monotone {mono0 and mono1}, {elapsed:.1f}s")

    def test_criterion_4_determinant_vs_monte_carlo(self):
        t0 = time.time()
        n, reps = 20, 100000
        details = []
        ok = True
        for a, seed in ((0.0, 101), (0.5, 102)):
            ortho = build_ortho(GUE, n, n + 1, a_hint=a)
            sk = build_spiked(ortho, a, 1)
            draws = sample_gaussian_spiked(n, a, reps, seed=seed)
            for thr in (2.2, 2.5):
                exact = gap_probability(sk, [(thr, np.inf)])
                emp = float(np.mean(draws.lambda_max < thr))
                se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / reps)
                ok = ok and abs(exact - emp) <= 3.0 * se + 1e-6
                details.append(f"a={a} t={thr}: |{exact:.5f}-{emp:.5f}|<=3se={3*se:.1e}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 300.0
        report(4, "finite-size determinant vs Monte Carlo", ok,
               "; ".join(details) + f", {elapsed:.0f}s")

    def test_criterion_5_edge_laws_at_desk_scale(self, eq_gue):
        t0 = time.time()
        laws = {
            0.5: LimitLaw("F0", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0),
            2.0: LimitLaw("Gauss", center=2.5, scale_const=math.sqrt(4.0 / 3.0), scale_exponent=0.5),
            1.0: LimitLaw("F1", center=2.0, scale_const=1.0, scale_exponent=2.0 / 3.0, alpha=0.0),
        }
        tols = {0.5: 0.08, 2.0: 0.08, 1.0: 0.10}
        ks = {a: [ks_distance(_pooled_gaussian_sample(nn, a), law) for nn in C5_SIZES]
              for a, law in laws.items()}
        ks400 = {a: seq[-1] for a, seq in ks.items()}
        trend_ok = all(seq[0] > seq[1] > seq[2] for seq in ks.values())
        trend_txt = [f"a={a}: {seq[0]:.4f}>{seq[1]:.4f}>{seq[2]:.4f}" for a, seq in ks.items()]
        elapsed = time.time() - t0
        ok = all(ks400[a] < tols[a] for a in laws) and trend_ok and elapsed < 900.0
        report(5, "desk-scale edge laws (KS)", ok,
               f"KS400 {({a: round(v, 4) for a, v in ks400.items()})}, "
               + "; ".join(trend_txt) + f", {elapsed:.0f}s")

    def test_criterion_6_factored_determinant_identity(self):
        t0 = time.time()
        ortho = build_ortho(GUE, 16, 17, a_hint=0.5)
        sk = build_spiked(ortho, 0.5, 1)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(10):
            if rng.uniform() < 0.5:
                lo = rng.uniform(-2.5, 2.3)
                segs = [(lo, lo + rng.uniform(0.2, 2.5))]
            else:
                lo1 = rng.uniform(-2.5, 0.0)
                hi1 = lo1 + rng.uniform(0.2, 1.0)
                lo2 = hi1 + rng.uniform(0.2, 1.0)
                segs = [(lo1, hi1), (lo2, lo2 + rng.uniform(0.2, 1.5))]
            a = gap_probability_raw(sk, segs, factored=True)
            b = gap_probability_raw(sk, segs, factored=False)
            worst = max(worst, abs(a - b))
        elapsed = time.time() - t0
        ok = worst < 1e-8 and elapsed < 60.0
        report(6, "factored vs direct spiked determinant", ok,
               f"worst {worst:.2e}, {elapsed:.1f}s")

    def test_criterion_7_projection_algebra(self):
        t0 = time.time()
        ortho = build_ortho(GUE, 16, 18, a_hint=0.5)
        ok = True
        details = []
        for j in (1, 2):
            sk = build_spiked(ortho, 0.5, j)
            x = ortho.grid.nodes
            w = ortho.grid.weights
            Kt = sk.kernel_matrix(x)
            resid = np.max(np.abs((Kt * w) @ Kt - Kt))
            tr = float(np.dot(w, np.diag(Kt)))
            ok = ok and resid < 1e-6 and abs(tr - (16 - j + 1)) < 1e-6
            details.append(f"j={j}: |K~^2-K~| {resid:.1e}, trace err {abs(tr - (16 - j + 1)):.1e}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 60.0
        report(7, "spiked kernel projection algebra", ok, "; ".join(details) + f", {elapsed:.1f}s")

    def test_criterion_8_nonconvex_phenomenology(self, eq_eynard):
        t0 = time.time()
        reg = check_regular(eq_eynard)
        a_c = critical_a(eq_eynard)
        half = 0.5 * eq_eynard.V.eval(eq_eynard.a1, 1)
        margin = half - a_c
        a_mid = 0.5 * (a_c + half)
        xbar = x0_of(eq_eynard, a_mid)
        exhibit = (G_fn(eq_eynard, a_mid, xbar)
                   > H_fn(eq_eynard, a_mid, c_of_a(eq_eynard, a_mid)))
        exhibit = exhibit and in_A_V(eq_eynard, a_mid) and a_mid < half
        elapsed = time.time() - t0
        ok = reg.passed and margin > 0 and exhibit and elapsed < 60.0
        report(8, "non-convex potential phenomenology", ok,
               f"regular {reg.passed}, a_c={a_c:.4f} < half={half:.4f} (margin {margin:.3f}), "
               f"xbar={xbar:.3f}, {elapsed:.1f}s")

    def test_criterion_9_mixture_weight_properties(self, eq_gue):
        t0 = time.time()

        # synthetic (x, k) parts: bulk (k = 0) right of the edge or on it,
        # tied simple maximizers, and a simple maximizer against a flat one
        parts_by_case = {
            "critical": [(2.2, 0), (3.0, 1)],
            "secondary": [(2.5, 1), (3.0, 1)],
            "flat secondary": [(2.5, 1), (3.2, 2)],
            "transit": [(eq_gue.a1, 0), (2.5, 1)],
        }
        ok = True
        for parts in parts_by_case.values():
            firsts = []
            for alpha in np.linspace(-5.0, 5.0, 11):
                w = mixture_weights(eq_gue, parts, float(alpha))
                ok = ok and abs(sum(w) - 1.0) < 1e-12 and all(wi > 0 for wi in w)
                firsts.append(w[0])
            ok = ok and all(b < a for a, b in zip(firsts, firsts[1:]))
            ok = ok and mixture_weights(eq_gue, parts, -30.0)[0] > 1.0 - 1e-6
            ok = ok and mixture_weights(eq_gue, parts, 30.0)[0] < 1e-6
        elapsed = time.time() - t0
        ok = ok and elapsed < 5.0
        report(9, "mixture weight properties in all regimes", ok, f"{elapsed:.2f}s")

    def test_criterion_10_mcmc_validity(self):
        t0 = time.time()
        ok = True
        details = []
        for n in (8, 32):
            for a in (0.0, 0.5, 2.0):
                # 4000 kept draws per chain: over 20 shifted seed sets the
                # largest of the six KS values is at most 0.055, so the 0.07
                # gate tests the law and not the seed (800 draws pass 16/20)
                cfg = McmcConfig(steps=8600, burn_in=600, thinning=2,
                                 seed=500 + n + int(10 * a))
                mc = mcmc_sample(GUE, n, a, cfg)
                direct = sample_gaussian_spiked(n, a, 4000, seed=600 + n + int(10 * a))
                ks = ks_two_sample(mc.lambda_max, direct.lambda_max)
                ok = ok and ks < 0.07
                details.append(f"n={n},a={a}: KS {ks:.3f}")
        balance_ok = self._grid_balance_within(0.05)
        elapsed = time.time() - t0
        ok = ok and balance_ok and elapsed < 600.0
        report(10, "Metropolis sampling validity", ok,
               "; ".join(details) + f", balance {balance_ok}, {elapsed:.0f}s")

    @staticmethod
    def _grid_balance_within(rel_tol):
        m = 9
        pts = np.linspace(-1.6, 1.6, m)
        logp = np.full((m, m, m), -np.inf)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if len({i, j, k}) == 3:
                        logp[i, j, k] = log_density_rank1(
                            np.array([pts[i], pts[j], pts[k]]), GUE, 3, 0.4)
        rng = np.random.Generator(np.random.Philox(key=1000))
        state = [1, 4, 7]
        cur = logp[1, 4, 7]
        steps = 10 ** 6
        moves = rng.integers(0, 3, size=steps)
        deltas = rng.choice([-1, 1], size=steps)
        accept_u = np.log(rng.uniform(size=steps))
        visits = np.zeros((m, m, m))
        for t in range(steps):
            site = moves[t]
            old = state[site]
            new = old + deltas[t]
            if 0 <= new < m:
                state[site] = new
                lp = logp[state[0], state[1], state[2]]
                if accept_u[t] < lp - cur:
                    cur = lp
                else:
                    state[site] = old
            a, b, c = sorted(state)
            visits[a, b, c] += 1
        sector = [(i, j, k) for i in range(m) for j in range(i + 1, m) for k in range(j + 1, m)]
        weights = {cell: math.exp(logp[cell]) for cell in sector}
        total = sum(weights.values())
        top = sorted(weights, key=weights.get, reverse=True)[:12]
        return all(
            abs(visits[cell] / steps - weights[cell] / total)
            < rel_tol * (weights[cell] / total) + 3.0 / math.sqrt(steps)
            for cell in top
        )
