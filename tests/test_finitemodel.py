import math

import numpy as np
import pytest

from spectral_edge.finitemodel import (
    GridError,
    build_ortho,
    build_spiked,
    cd_kernel_matrix,
    choose_halfwidth,
    gap_probability,
    gap_probability_raw,
)
from spectral_edge.limitlaws import f0
from spectral_edge.potential import GUE
from spectral_edge.specialfn import airy_ai_pair


@pytest.fixture(scope="module")
def ortho20():
    return build_ortho(GUE, 20, 21)


@pytest.fixture(scope="module")
def ortho16():
    return build_ortho(GUE, 16, 17, a_hint=0.5)


class TestOrthoSystem:
    def test_hermite_recurrence_oracle(self, ortho20):
        # under the Gaussian weight the off-diagonal recurrence coefficients
        # are exactly sqrt(i/n)
        expected = np.sqrt(np.arange(1, 21) / 20.0)
        assert np.max(np.abs(ortho20.recur_b[1:21] - expected)) < 1e-10

    def test_orthogonality(self, ortho20):
        w = ortho20.grid.weights
        assert abs(np.dot(w, ortho20.psi_values[3] * ortho20.psi_values[5])) < 1e-10

    def test_normalization(self, ortho20):
        w = ortho20.grid.weights
        assert abs(np.dot(w, ortho20.psi_values[7] ** 2) - 1.0) < 1e-10

    def test_orthonormality_defect(self, ortho20):
        assert ortho20.orthonormality_defect() < 1e-9

    def test_psi_at_matches_grid(self, ortho20):
        xs = ortho20.grid.nodes[100:103]
        direct = ortho20.psi_at(xs)
        assert np.max(np.abs(direct - ortho20.psi_values[:, 100:103])) < 1e-9

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_ortho(GUE, 20, 21, m_grid=100)

    def test_halfwidth_covers_weight(self):
        L = choose_halfwidth(GUE, 20)
        assert 0.5 * 20 * GUE.eval(L) > 330 * math.log(10.0)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            build_ortho(GUE, 200, 20)


class TestKernel:
    def test_reproducing_property(self, ortho20):
        w = ortho20.grid.weights
        x = ortho20.grid.nodes
        K = cd_kernel_matrix(ortho20, 1, x)
        K2 = (K * w) @ K
        assert np.max(np.abs(K2 - K)) < 1e-8

    def test_trace_is_rank(self, ortho20):
        w = ortho20.grid.weights
        x = ortho20.grid.nodes
        K = cd_kernel_matrix(ortho20, 1, x)
        assert abs(np.dot(w, np.diag(K)) - 19.0) < 1e-8

    def test_sum_and_ratio_forms_agree(self, ortho20):
        # Christoffel-Darboux: the sum over the first n-j functions equals
        # the two-term ratio form with gamma_{nj-1}/gamma_{nj} = recur_b[nj]
        x, y = 1.3, 1.3 + 1e-3
        nj = 19
        px = ortho20.psi_at(np.array([x, y]))
        sum_form = float(cd_kernel_matrix(ortho20, 1, np.array([x]), np.array([y]))[0, 0])
        ratio_form = ortho20.recur_b[nj] * (px[nj, 0] * px[nj - 1, 1]
                                            - px[nj - 1, 0] * px[nj, 1]) / (x - y)
        assert abs(ratio_form - sum_form) < 1e-8

    def test_edge_scaling_approaches_airy_kernel(self, ortho20, eq_gue):
        bn = eq_gue.beta * 20 ** (2.0 / 3.0)
        x = 2.0 + 1.0 / bn
        ai, aip = airy_ai_pair(np.array([1.0]))
        k_airy_diag = aip[0] ** 2 - 1.0 * ai[0] ** 2
        assert abs(cd_kernel_matrix(ortho20, 1, np.array([x]))[0, 0] / bn - k_airy_diag) < 0.05


class TestSpikedKernel:
    def test_tilt_projection_laplace_order(self, ortho20, eq_gue):
        # leading exponential order of the tilt projection at a detached
        # spike: n*G(x0) - n*ell/2 plus the curvature prefactor
        from spectral_edge.limitlaws import _outer_prefactor
        from spectral_edge.transition import G_fn, x0_of

        sk = build_spiked(ortho20, 2.0, 1)
        x0 = x0_of(eq_gue, 2.0)
        curv = 4.0 / 3.0
        laplace = (20.0 * (G_fn(eq_gue, 2.0, x0) - eq_gue.ell / 2.0)
                   + 0.5 * math.log(2.0 * math.pi / (20.0 * curv))
                   + math.log(_outer_prefactor(eq_gue, x0, 1)))
        assert abs(sk.Gamma_log - laplace) < 2.0

    def test_tilt_projection_sign_linearity(self, ortho20):
        w = ortho20.grid.weights
        tilt = np.exp(20.0 * (0.5 * ortho20.grid.nodes - 0.5 * GUE.eval(ortho20.grid.nodes)))
        plus = np.dot(w, tilt * ortho20.psi_values[19])
        minus = np.dot(w, tilt * (-ortho20.psi_values[19]))
        assert plus == -minus

    def test_zero_spike_projection_two_orders(self, ortho20):
        w = ortho20.grid.weights
        root = np.exp(-10.0 * GUE.eval(ortho20.grid.nodes))
        one_way = float(np.dot(w * root, ortho20.psi_values[19]))
        other = float(np.dot(w, root * ortho20.psi_values[19]))
        assert abs(one_way - other) < 1e-12
        assert abs(one_way) < 1e-10

    def test_characterizing_inner_products(self, ortho16):
        sk = build_spiked(ortho16, 0.5, 1)
        w = ortho16.grid.weights
        nj = 15
        for k in range(nj - 3, nj):
            val = np.dot(w, sk.tilde_psi_values * ortho16.psi_values[k])
            assert abs(val) < 1e-7
        assert abs(np.dot(w, sk.tilde_psi_values * ortho16.psi_values[nj]) - 1.0) < 1e-7
        for k in (0, 5, 9):
            assert abs(np.dot(w, sk.tilde_psi_values * ortho16.psi_values[k])) < 1e-7

    @pytest.mark.parametrize("j", [1, 2])
    def test_projection_algebra(self, ortho16, j):
        sk = build_spiked(ortho16, 0.5, j)
        x = ortho16.grid.nodes
        w = ortho16.grid.weights
        Kt = sk.kernel_matrix(x)
        Kt2 = (Kt * w) @ Kt
        assert np.max(np.abs(Kt2 - Kt)) < 1e-6
        assert abs(np.dot(w, np.diag(Kt)) - (16 - j + 1)) < 1e-6

    def test_zero_spike_degenerates_to_unspiked(self, ortho16):
        sk = build_spiked(ortho16, 0.0, 1)
        assert np.max(np.abs(sk.tilde_psi_values - ortho16.psi_values[15])) == 0.0

    def test_tilt_too_strong_rejected(self, ortho16):
        with pytest.raises(GridError):
            build_spiked(ortho16, 0.5 * GUE.eval(ortho16.grid.interval[1], 1) + 1.0, 1)


class TestGapProbability:
    def test_empty_set(self, ortho20):
        sk = build_spiked(ortho20, 0.5, 1)
        assert gap_probability(sk, []) == 1.0

    def test_full_line_has_no_gap(self, ortho20):
        sk = build_spiked(ortho20, 0.5, 1)
        L = ortho20.grid.interval[1]
        assert gap_probability(sk, [(-L, np.inf)]) < 1e-8

    def test_factored_vs_direct(self, ortho16):
        rng = np.random.default_rng(5)
        sk = build_spiked(ortho16, 0.5, 1)
        for _ in range(4):
            lo = rng.uniform(-2.5, 2.0)
            hi = lo + rng.uniform(0.3, 3.0)
            a = gap_probability_raw(sk, [(lo, hi)])
            b = gap_probability_raw(sk, [(lo, hi)], factored=False)
            assert abs(a - b) < 1e-8

    def test_factored_vs_direct_at_n128(self):
        # GUE n = 128, a = 1.5: supercritical, so the determinants are not
        # rounding noise and the two routes agree to 1e-12 over the gap
        # subcommand's T grid and a two-interval union
        sk = build_spiked(build_ortho(GUE, 128, 129, a_hint=1.5), 1.5, 1)
        thresholds = 2.0 + np.linspace(-4.0, 3.0, 15) / 128 ** (2.0 / 3.0)
        for intervals in [[(t, np.inf)] for t in thresholds] + [[(1.95, 2.0), (2.05, np.inf)]]:
            a = gap_probability_raw(sk, intervals)
            b = gap_probability_raw(sk, intervals, factored=False)
            assert abs(a - b) < 1e-12, (intervals, a, b)

    def test_factored_route_is_one_lu(self, ortho16, monkeypatch):
        # det(I - M) and the resolvent correction come from one determinant
        # of I - M bordered by the two functions: no solve
        sizes = []
        real_det = np.linalg.det

        def counting_det(a):
            sizes.append(a.shape)
            return real_det(a)

        def no_solve(*args, **kwargs):
            raise AssertionError("the factored route solves no linear system")

        monkeypatch.setattr(np.linalg, "det", counting_det)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        sk = build_spiked(ortho16, 0.5, 1)
        gap_probability_raw(sk, [(1.8, 2.2), (2.4, np.inf)])
        assert sizes == [(321, 321)]

    def test_union_of_intervals(self, ortho16):
        sk = build_spiked(ortho16, 0.5, 1)
        both = gap_probability(sk, [(1.8, 2.2), (2.4, np.inf)])
        single = gap_probability(sk, [(1.8, np.inf)])
        assert 0.0 < single < both < 1.0

    def test_monotone_in_nested_tails(self, ortho20):
        sk = build_spiked(ortho20, 0.5, 1)
        probs = [gap_probability(sk, [(t, np.inf)]) for t in (1.6, 1.9, 2.2, 2.5)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_spike_continuity(self, ortho16):
        a = 0.5
        g1 = gap_probability(build_spiked(ortho16, a, 1), [(2.2, np.inf)])
        g2 = gap_probability(build_spiked(ortho16, a + 1e-6, 1), [(2.2, np.inf)])
        assert abs(g1 - g2) < 1e-4

    def test_approaches_soft_edge_law(self, eq_gue):
        # bulk-edge scaling window at T = 0 with a subcritical spike: the
        # finite-size gap approaches the limiting determinant as n grows
        target = f0(0.0)
        errs = []
        for n in (20, 40, 80):
            ortho = build_ortho(GUE, n, n + 1, a_hint=0.5)
            sk = build_spiked(ortho, 0.5, 1)
            thr = 2.0  # e + 0 / (beta n^{2/3})
            errs.append(abs(gap_probability(sk, [(thr, np.inf)]) - target))
        # centering at the leading-order edge leaves an O(n^{-1/3}) shift,
        # so the error contracts by about 2^{1/3} = 1.26 per doubling
        assert errs[0] > 1.15 * errs[1] > 1.15 * 1.15 * errs[2]
        assert errs[2] < 0.02
