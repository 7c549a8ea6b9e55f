import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogi, ndtri

from spectral_edge import sampler
from spectral_edge.equilibrium import solve_support
from spectral_edge.finitemodel import build_ortho, build_spiked, gap_probability_raw
from spectral_edge.limitlaws import LimitLaw, f0, predict_law
from spectral_edge.potential import GUE, QUARTIC, eynard_potential, load_potential
from spectral_edge.transition import critical_a
from conftest import dense_spiked_eigvalsh, edge_sample_400
from oracles import (
    dd_exp_log,
    full_tridiagonal_draws,
    lambda_pass_one_site_at_a_time,
    log_density_rank1,
    top_eigenvalue_lapack,
)
from spectral_edge.sampler import (
    EdgeSample,
    McmcConfig,
    _log_gaps,
    _top_eigenvalues,
    ks_distance,
    ks_two_sample,
    load_sample,
    mcmc_sample,
    sample_gaussian_spiked,
    save_sample,
    truncated_exp_draw,
)

# Integrated autocorrelation time above which a chain fails its law test,
# as in the benchmark's GUE chain check: a chain that mixes worse must not
# widen its own KS gate.
TAU_MAX = 8.0


def autocorr_time(x) -> float:
    """Integrated autocorrelation time, Sokal's window M >= 5 tau."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    k = x.size
    f = np.fft.rfft(x, n=2 * k)
    acf = np.fft.irfft(f * np.conj(f))[:k]
    if acf[0] <= 0:
        return 1.0
    rho = acf / acf[0]
    tau = 1.0
    for m in range(1, k):
        tau += 2.0 * rho[m]
        if m >= 5.0 * tau:
            break
    return max(tau, 1.0)


class TestDividedDifference:
    def test_two_point_closed_form(self):
        l1, l2, c = 0.3, -0.7, 4.0
        closed = (math.exp(c * l1) - math.exp(c * l2)) / (l1 - l2)
        assert abs(math.exp(dd_exp_log(np.array([l1, l2]), c)) - closed) < 1e-10 * closed

    def test_alternating_sum_oracle(self):
        lams = np.array([-1.5, -0.4, 0.3, 1.1, 2.0])
        c = 3.0
        oracle = sum(
            math.exp(c * li) / np.prod([li - lj for lj in lams if lj != li]) for li in lams
        )
        assert abs(math.exp(dd_exp_log(lams, c)) - oracle) < 1e-10 * oracle

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=8, unique=True),
           st.floats(min_value=0.5, max_value=20.0))
    def test_permutation_invariance(self, lams, c):
        lams = np.array(lams)
        rng = np.random.default_rng(0)
        perm = rng.permutation(lams)
        assert abs(dd_exp_log(lams, c) - dd_exp_log(perm, c)) < 1e-9 * max(1.0, abs(dd_exp_log(lams, c)))

    def test_positivity_guard(self):
        val = dd_exp_log(np.array([0.0, 0.0 + 1e-12]), 5.0)
        assert math.isfinite(val)


class TestLogDensity:
    def test_zero_spike_decouples(self):
        lams1 = np.array([-1.0, 0.2, 0.9])
        lams2 = np.array([-1.1, 0.1, 1.2])
        d_spiked = log_density_rank1(lams1, GUE, 8, 0.0) - log_density_rank1(lams2, GUE, 8, 0.0)
        def loggas(l):
            rep = 2.0 * sum(math.log(abs(a - b)) for i, a in enumerate(l) for b in l[i + 1:])
            return rep - 8.0 * sum(GUE.eval(x) for x in l)
        assert abs(d_spiked - (loggas(lams1) - loggas(lams2))) < 1e-12

    def test_tie_perturbation(self):
        val = log_density_rank1(np.array([0.5, 0.5, 1.0]), GUE, 8, 0.3)
        assert math.isfinite(val)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.5), min_size=3, max_size=6, unique=True))
    def test_permutation_symmetry(self, lams):
        lams = np.array(lams)
        rng = np.random.default_rng(1)
        v1 = log_density_rank1(lams, GUE, 12, 0.7)
        v2 = log_density_rank1(rng.permutation(lams), GUE, 12, 0.7)
        assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))


class TestDirectSampler:
    def test_reproducible(self):
        s1 = sample_gaussian_spiked(50, 0.5, 100, seed=42)
        s2 = sample_gaussian_spiked(50, 0.5, 100, seed=42)
        assert np.array_equal(s1.lambda_max, s2.lambda_max)

    def test_subcritical_mean_matches_edge_law(self):
        # the mean shift constant is the mean of the soft-edge law computed
        # from its CDF, not assumed
        ts = np.linspace(-11.5, 8.0, 140)
        cdf = np.array([f0(float(t)) for t in ts])
        pdf = np.gradient(cdf, ts)
        mean_f0 = float(np.trapezoid(ts * pdf, ts))
        assert abs(mean_f0 - (-1.771)) < 0.01
        n = 400
        s = edge_sample_400(0.0)
        se = s.lambda_max.std() / math.sqrt(s.lambda_max.size)
        predicted = 2.0 + mean_f0 * n ** (-2.0 / 3.0)
        assert abs(s.lambda_max.mean() - predicted) < 3.0 * se + 1.5 / n

    def test_supercritical_mean(self):
        s = edge_sample_400(2.0)
        se = s.lambda_max.std() / math.sqrt(s.lambda_max.size)
        assert abs(s.lambda_max.mean() - 2.5) < 3.0 * se + 0.05

    def test_spectral_symmetry_at_zero_spike(self):
        # oracle built on the same convention: -lambda_min of the unspiked
        # ensemble must match lambda_max in distribution
        rng = np.random.Generator(np.random.Philox(key=99))
        n, reps = 60, 2000
        mx = np.empty(reps)
        mn = np.empty(reps)
        for i in range(0, reps, 500):
            b = 500
            ev = dense_spiked_eigvalsh(rng, n, 0.0, b)
            mx[i:i + b] = ev[:, -1]
            mn[i:i + b] = ev[:, 0]
        assert ks_two_sample(mx, -mn) < 0.05

    @staticmethod
    def against_dense(n, a, dense_key, seed):
        # independent route: top eigenvalue of the dense Hermitian matrix;
        # two-sample KS gated at its asymptotic 0.1% critical value
        reps, b = 20000, 2000
        rng = np.random.Generator(np.random.Philox(key=dense_key))
        dense = np.concatenate([dense_spiked_eigvalsh(rng, n, a, b)[:, -1]
                                for _ in range(reps // b)])
        tri = sample_gaussian_spiked(n, a, reps, seed=seed).lambda_max
        crit = kolmogi(1e-3) * math.sqrt(2.0 / reps)
        assert ks_two_sample(dense, tri) < crit

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
    def test_tridiagonal_matches_dense_construction(self, a):
        self.against_dense(30, a, dense_key=120 + int(10 * a), seed=130 + int(10 * a))

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_leading_rows_match_dense_construction(self, a):
        # at n = 40 only the leading 35 rows of the tridiagonal model are drawn
        self.against_dense(40, a, dense_key=140 + int(10 * a), seed=150 + int(10 * a))

    def test_volume_guard(self):
        with pytest.raises(ValueError):
            sample_gaussian_spiked(2000, 0.0, 100000, seed=0)


def hermite_batch(n: int, a: float, b: int, seed: int):
    """b spiked Hermite tridiagonal matrices of size n, laid out as
    ``_top_eigenvalues`` takes them: row i holds entry i of every matrix."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    diag = rng.normal(size=(n, b)) / math.sqrt(n)
    diag[0] += a
    dof = 2.0 * np.arange(n - 1, 0, -1)[:, None]
    off = np.sqrt(rng.chisquare(dof, size=(n - 1, b)) / (2.0 * n))
    return diag, off


class TestTopEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33, 400])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0])
    def test_matches_lapack(self, n, a):
        diag, off = hermite_batch(n, a, 200, seed=300 + n)
        lapack = [top_eigenvalue_lapack(d, e) for d, e in zip(diag.T, off.T)]
        assert np.max(np.abs(_top_eigenvalues(diag, off) - lapack)) <= 1e-14

    @pytest.mark.parametrize("n", [100, 400, 2000])
    def test_cut_lowers_the_top_eigenvalue_by_little(self, n):
        # Interlacing: the leading k x k block's top eigenvalue lies below the
        # full matrix's; the lower gate allows the rounding of the two
        # bisections (each within 1e-15 of LAPACK), as ties are common.
        k = min(n, math.ceil(10.0 * n ** (1.0 / 3.0)))
        diag, off = hermite_batch(n, 0.0, 500, seed=400 + n)
        for a in (0.0, 0.5, 1.0, 1.1, 2.0):
            spiked = diag.copy()
            spiked[0] += a
            block = _top_eigenvalues(spiked[:k].copy(), off[:k - 1].copy())
            gap = _top_eigenvalues(spiked, off) - block
            assert -1e-14 <= gap.min() and gap.max() <= 1e-8, (a, gap.min(), gap.max())

    def test_exact_zero_pivot(self):
        # zero diagonal, unit off-diagonal: for k >= 3 the first midpoint
        # x = 1 gives the pivots -1, 0, ...; the eigenvalues are
        # 2 cos(j pi / (k + 1))
        for k in (2, 3, 7, 40):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                top = _top_eigenvalues(np.zeros((k, 3)), np.ones((k - 1, 3)))
            assert np.all(np.abs(top - 2.0 * math.cos(math.pi / (k + 1))) <= 1e-14)

    @pytest.mark.parametrize("n, reps", [(1, 50), (2, 300), (16, 300), (33, 2 ** 20 // 33 + 7)])
    def test_small_n_draws_replay_the_full_matrix(self, n, reps):
        # up to n = 33 every row is kept, drawn by the same Philox calls
        for a in (0.0, 0.5, 2.0) if reps < 1000 else (1.0,):
            draws = sample_gaussian_spiked(n, a, reps, seed=500 + n).lambda_max
            assert np.max(np.abs(draws - full_tridiagonal_draws(n, a, reps, 500 + n))) <= 1e-14


class TestKsDistance:
    def test_self_consistency_inverse_cdf(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        draws = ndtri(rng.uniform(size=2000))
        sample = EdgeSample(draws, n=1, a=0.0, j=1, potential_label="gue",
                            seed=3, method="direct-gaussian")
        law = LimitLaw("Gauss", center=0.0, scale_const=1.0, scale_exponent=0.0)
        assert ks_distance(sample, law) < 0.04

    def test_grid_interpolation_agrees_with_direct(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=4))
        draws = ndtri(rng.uniform(size=900))
        sample = EdgeSample(draws, n=1, a=0.0, j=1, potential_label="gue",
                            seed=4, method="direct-gaussian")
        law = LimitLaw("Gauss", center=0.0, scale_const=1.0, scale_exponent=0.0)
        gridded = ks_distance(sample, law)
        # a grid of 10**6 points exceeds the sample, so the law is evaluated at every draw
        monkeypatch.setattr("spectral_edge.sampler._KS_GRID", 10 ** 6)
        direct = ks_distance(sample, law)
        assert abs(direct - gridded) < 2e-3


class TestMcmc:
    def test_matches_direct_sampler_small_n(self):
        cfg = McmcConfig(steps=2600, burn_in=600, thinning=2, seed=11)
        mc = mcmc_sample(GUE, 8, 0.5, cfg)
        direct = sample_gaussian_spiked(8, 0.5, 4000, seed=12)
        assert 0.1 <= mc.acceptance <= 0.9
        assert ks_two_sample(mc.lambda_max, direct.lambda_max) < 0.07

    def test_supercritical_concentration(self):
        cfg = McmcConfig(steps=1800, burn_in=600, thinning=2, seed=13)
        mc = mcmc_sample(GUE, 32, 2.0, cfg)
        assert np.mean(mc.lambda_max > 2.2) > 0.95

    def test_reproducible(self):
        cfg = McmcConfig(steps=500, burn_in=200, seed=21)
        a = mcmc_sample(GUE, 8, 0.5, cfg)
        b = mcmc_sample(GUE, 8, 0.5, cfg)
        assert np.array_equal(a.lambda_max, b.lambda_max)

    def test_detailed_balance_on_grid(self):
        # 3 coordinates on a coarse lattice; long-run visit frequencies must
        # match the normalized density.  Single-site unit moves cannot
        # exchange particle order without a (forbidden) coincidence, so the
        # chain conserves its ordering sector; states are canonicalized by
        # sorting and compared against the sector-normalized density.
        m = 9
        pts = np.linspace(-1.6, 1.6, m)
        logp = np.full((m, m, m), -np.inf)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if len({i, j, k}) < 3:
                        continue
                    lam = np.array([pts[i], pts[j], pts[k]])
                    logp[i, j, k] = log_density_rank1(lam, GUE, 3, 0.4)
        rng = np.random.Generator(np.random.Philox(key=17))
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
        for cell in top:
            expected = weights[cell] / total
            observed = visits[cell] / steps
            assert abs(observed - expected) < 0.05 * expected + 3.0 / math.sqrt(steps)


class TestLambdaPass:
    """The eigenvalue pass read from log tables against the same pass one
    site at a time, each repulsion change summed over the current values."""

    @pytest.mark.parametrize("potential", ["gue", "quartic", "eynard(3,0.02)"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_chains_are_byte_identical(self, monkeypatch, potential, n):
        V = load_potential(potential)
        for a in (0.0, 0.45, 1.5):
            cfg = McmcConfig(steps=300, burn_in=100, seed=n + 7)
            tables = mcmc_sample(V, n, a, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(sampler, "_lambda_pass", lambda_pass_one_site_at_a_time)
                one_at_a_time = mcmc_sample(V, n, a, cfg)
            assert tables.lambda_max.tobytes() == one_at_a_time.lambda_max.tobytes(), a
            assert tables.acceptance == one_at_a_time.acceptance, a

    def test_ties_take_the_exact_check(self):
        n = 12
        rng = np.random.Generator(np.random.Philox(key=5))
        lams = np.sort(rng.normal(size=n))
        props = lams + 0.3 * rng.normal(size=n)
        thresholds = np.log(rng.uniform(size=n)) + rng.normal(size=n)
        props[3] = lams[7] + 1e-13      # near a site that has not moved yet
        props[5] = lams[2]              # a pass-start value, left by a move
        props[9] = props[10] + 5e-14    # two proposals within TIE_GAP
        thresholds[[2, 3, 5, 9, 10]] = -200.0   # far below a floored log
        states = [(lams.copy(), _log_gaps(lams)) for _ in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moved = sampler._lambda_pass(*states[0], props, thresholds)
        expected = lambda_pass_one_site_at_a_time(*states[1], props, thresholds)
        assert moved.tolist() == expected.tolist()
        assert moved[[2, 5, 9]].all() and not moved[[3, 10]].any()
        assert not moved.all() and moved.sum() > 5
        for got, want in zip(*states):
            assert got.tobytes() == want.tobytes()


class TestSpikeWeightMove:
    @pytest.mark.parametrize("r", [6.0, -6.0, 0.0])
    def test_matches_closed_form_cdf(self, r):
        # 1e5 draws against (1 - exp(r u)) / (1 - exp(r s)), gated by DKW at 1e-3
        s, reps = 0.7, 10 ** 5
        rng = np.random.Generator(np.random.Philox(key=50))
        draws = np.sort(truncated_exp_draw(np.full(reps, s), np.full(reps, r),
                                           rng.uniform(size=reps)))
        assert draws[0] >= 0.0 and draws[-1] <= s
        cdf = draws / s if r == 0.0 else np.expm1(r * draws) / math.expm1(r * s)
        ecdf = np.arange(1, reps + 1) / reps
        ks = max(np.max(ecdf - cdf), np.max(cdf - (ecdf - 1.0 / reps)))
        assert ks < math.sqrt(math.log(2.0 / 1e-3) / (2.0 * reps))

    def test_steep_rates_stay_finite(self):
        # r s far beyond exp's range: the draws pile up at the favoured end
        u = np.array([0.0, 0.5, 0.999999])
        s = np.ones(3)
        up = truncated_exp_draw(s, np.full(3, 2000.0), u)
        down = truncated_exp_draw(s, np.full(3, -2000.0), u)
        assert np.all(np.isfinite(up)) and np.all((1.0 - 0.01 < up) & (up <= 1.0))
        assert np.all(np.isfinite(down)) and np.all((0.0 <= down) & (down < 0.01))


class TestMcmcAgainstExactLaw:
    # Independent route: the exact finite-n CDF of the largest eigenvalue,
    # the gap determinant of the spiked kernel at the same n.  The gate is
    # the DKW bound at 1e-3 for draws / tau, with tau capped at TAU_MAX.
    # Every 8th sweep is kept: at eynard's critical value the law is
    # bimodal and lambda_max mixes slowly (tau ~ 9 per 2 sweeps at n = 8).
    @pytest.mark.parametrize("V, a, seed", [
        (eynard_potential(3.0, 0.02), None, 71),
        (QUARTIC, 0.5, 72),
    ], ids=["eynard-at-critical", "quartic"])
    def test_matches_gap_probability(self, V, a, seed):
        n = 8
        if a is None:
            a = critical_a(solve_support(V))
        mc = mcmc_sample(V, n, a, McmcConfig(steps=16600, burn_in=600, thinning=8, seed=seed))
        draws = np.sort(mc.lambda_max)
        tau = autocorr_time(mc.lambda_max)
        assert tau <= TAU_MAX
        sk = build_spiked(build_ortho(V, n, n + 1, a_hint=a), a, 1)
        grid = np.linspace(draws[0], draws[-1], 160)
        exact = np.array([gap_probability_raw(sk, [(t, np.inf)]) for t in grid])
        cdf = np.interp(draws, grid, exact)
        k = draws.size
        ks = max(np.max(np.arange(1, k + 1) / k - cdf), np.max(cdf - np.arange(k) / k))
        assert ks < math.sqrt(math.log(2.0 / 1e-3) * tau / (2.0 * k))


class TestConventionPinning:
    def test_small_size_determinant_matches_sampling(self):
        # pins the Gaussian variance convention before the acceptance suite:
        # exact gap determinant vs direct draws at the smallest usable size
        n, a, thr = 2, 0.5, 1.8
        ortho = build_ortho(GUE, n, n + 1, a_hint=a)
        sk = build_spiked(ortho, a, 1)
        exact = gap_probability_raw(sk, [(thr, np.inf)])
        reps = 400000
        s = sample_gaussian_spiked(n, a, reps, seed=40)
        emp = float(np.mean(s.lambda_max < thr))
        se = math.sqrt(emp * (1 - emp) / reps)
        assert abs(exact - emp) < 4.0 * se

    def test_small_size_determinant_matches_density_quadrature(self):
        # independent oracle: the joint eigenvalue density (squared
        # separation, confinement weight, exponential divided difference)
        # integrated over the box below the threshold; both routes agree to
        # near machine precision
        from numpy.polynomial.legendre import leggauss
        a, thr, L = 0.5, 1.8, 10.0
        t, w = leggauss(900)

        def block(lo, hi):
            x = lo + 0.5 * (hi - lo) * (t + 1.0)
            wx = 0.5 * (hi - lo) * w
            x1, x2 = np.meshgrid(x, x, indexing="ij")
            w2 = np.outer(wx, wx)
            num = np.exp(2 * a * x1) - np.exp(2 * a * x2)
            den = x1 - x2
            dd = np.divide(num, den, out=np.zeros_like(num), where=np.abs(den) > 0)
            np.fill_diagonal(dd, 2 * a * np.exp(2 * a * x))
            return float(np.sum(w2 * (x1 - x2) ** 2 * np.exp(-(x1 ** 2 + x2 ** 2)) * dd))

        oracle = block(-L, thr) / block(-L, L)
        ortho = build_ortho(GUE, 2, 3, a_hint=a)
        sk = build_spiked(ortho, a, 1)
        assert abs(gap_probability_raw(sk, [(thr, np.inf)]) - oracle) < 1e-10


class TestPersistence:
    def test_round_trip(self, tmp_path):
        s = sample_gaussian_spiked(30, 1.2, 50, seed=5)
        path = tmp_path / "edge.csv"
        save_sample(s, path)
        back = load_sample(path)
        assert np.allclose(back.lambda_max, s.lambda_max, rtol=0, atol=1e-16)
        assert back.n == 30 and back.a == 1.2 and back.method == "direct-gaussian"

    def test_acceptance_rate_invariant(self):
        with pytest.raises(ValueError):
            EdgeSample(np.array([1.0]), n=8, a=0.0, j=1, potential_label="gue",
                       seed=0, method="mcmc", acceptance=0.95)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            EdgeSample(np.array([]), n=8, a=0.0, j=1, potential_label="gue",
                       seed=0, method="direct-gaussian")

    def test_finite_samples_invariant(self):
        with pytest.raises(ValueError):
            EdgeSample(np.array([np.nan]), n=8, a=0.0, j=1, potential_label="gue",
                       seed=0, method="direct-gaussian")
