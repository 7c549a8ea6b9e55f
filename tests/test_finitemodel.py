import math

import numpy as np
import pytest

from spectral_edge import finitemodel
from spectral_edge.finitemodel import (
    GridError,
    build_ortho,
    build_spiked,
    choose_halfwidth,
    gap_probability_raw,
)
from spectral_edge.limitlaws import f0
from spectral_edge.potential import GUE, QUARTIC, eynard_potential
from spectral_edge.sampler import sample_gaussian_spiked
from spectral_edge.specialfn import airy_ai_pair

from conftest import two_shelf_potential
from oracles import orthonormality_defect, string_residual


@pytest.fixture(scope="module")
def ortho20():
    return build_ortho(GUE, 20, 21)


@pytest.fixture(scope="module")
def ortho16():
    return build_ortho(GUE, 16, 17, a_hint=0.5)


def grid_psi(ortho):
    """The functions on the grid the build used."""
    return ortho.psi_at(ortho.grid.nodes)


class TestOrthoSystem:
    def test_hermite_recurrence_oracle(self, ortho20):
        # under the Gaussian weight the off-diagonal recurrence coefficients
        # are exactly sqrt(i/n)
        expected = np.sqrt(np.arange(1, 21) / 20.0)
        assert np.max(np.abs(ortho20.recur_b[1:21] - expected)) < 1e-10

    def test_orthogonality(self, ortho20):
        w = ortho20.grid.weights
        psi = grid_psi(ortho20)
        assert abs(np.dot(w, psi[3] * psi[5])) < 1e-10

    def test_normalization(self, ortho20):
        w = ortho20.grid.weights
        assert abs(np.dot(w, grid_psi(ortho20)[7] ** 2) - 1.0) < 1e-10

    def test_orthonormality_defect(self, ortho20):
        assert orthonormality_defect(ortho20) < 1e-9

    def test_psi_at_matches_grid(self, ortho20):
        # the recurrence coefficients taken back from psi_at on the grid,
        # a_k = <x psi_k, psi_k> and b_{k+1} = <x psi_{k+1}, psi_k>
        x, w = ortho20.grid.nodes, ortho20.grid.weights
        psi = grid_psi(ortho20)
        a = (psi * psi) @ (w * x)
        b = np.sum(psi[1:] * psi[:-1] * (w * x), axis=1)
        assert np.max(np.abs(a - ortho20.recur_a)) < 1e-12
        assert np.max(np.abs(b - ortho20.recur_b[1:21])) < 1e-12

    def test_gue_recurrence_with_a_wide_box(self):
        # a_hint = 4 widens the box to L = 22.8: the grid must still resolve
        # every function, so b_k = sqrt(k/n) holds to rounding
        ortho = build_ortho(GUE, 96, 97, a_hint=4.0)
        expected = np.sqrt(np.arange(1, 97) / 96.0)
        assert np.max(np.abs(ortho.recur_b[1:97] - expected)) < 1e-12

    def test_halfwidth_covers_weight(self):
        L = choose_halfwidth(GUE, 20)
        assert 0.5 * 20 * GUE.eval(L) > 330 * math.log(10.0)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            build_ortho(GUE, 200, 20)


POTENTIALS = {"gue": GUE, "quartic": QUARTIC, "eynard(3,0.02)": eynard_potential(3.0, 0.02),
              "two-shelf": two_shelf_potential()}


class TestStringEquations:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_residual(self, name, n):
        ortho = build_ortho(POTENTIALS[name], n, n + 1)
        assert string_residual(ortho) <= 1e-12
        assert ortho.string_residual <= 1e-12

    def test_unresolved_grid_is_grid_error(self, monkeypatch):
        # GUE at n = 96 with a_hint = 4 needs the start grid doubled
        monkeypatch.setattr(finitemodel, "_DOUBLINGS", 0)
        with pytest.raises(GridError, match="string equations"):
            build_ortho(GUE, 96, 97, a_hint=4.0)


class TestMendedCurves:
    def test_two_shelf_switch_at_n128(self, shelf_pot):
        # at the switch a0 the detached eigenvalue sits near x = 7.8, where
        # the weight e^{-nV/2} is subnormal (nV/2 = 737); the curve must not
        # depend on how many functions the system carries
        a0 = 1.68746
        expected = np.array([0.4111, 0.7639, 0.9996])
        for count in (129, 132):
            sk = build_spiked(build_ortho(shelf_pot, 128, count, a_hint=a0), a0, 1)
            got = np.array([gap_probability_raw(sk, [(t, np.inf)]) for t in (5.6, 7.0, 7.9)])
            assert np.max(np.abs(got - expected)) < 5e-4, (count, got)

    def test_gue_detached_at_a4_against_draws(self):
        # x0 = a + 1/a; a_hint = 4 widens the box to L = 22.8 (see
        # test_gue_recurrence_with_a_wide_box)
        n, a, reps = 96, 4.0, 20000
        x0 = a + 1.0 / a
        sk = build_spiked(build_ortho(GUE, n, n + 1, a_hint=a), a, 1)
        lam = sample_gaussian_spiked(n, a, reps, seed=960).lambda_max
        for thr in (x0 - 0.2, x0, x0 + 0.2):
            exact = gap_probability_raw(sk, [(thr, np.inf)])
            emp = float(np.mean(lam < thr))
            se = math.sqrt(emp * (1.0 - emp) / reps)
            assert abs(exact - emp) <= 4.0 * se, (thr, exact, emp, se)


def cd_kernel(ortho, j, x, y):
    """Reproducing kernel K(x_p, y_q) of the first n-j functions."""
    nj = ortho.n - j
    return ortho.psi_at(x)[:nj].T @ ortho.psi_at(y)[:nj]


class TestKernel:
    def test_reproducing_property(self, ortho20):
        w = ortho20.grid.weights
        x = ortho20.grid.nodes
        K = cd_kernel(ortho20, 1, x, x)
        K2 = (K * w) @ K
        assert np.max(np.abs(K2 - K)) < 1e-8

    def test_trace_is_rank(self, ortho20):
        w = ortho20.grid.weights
        x = ortho20.grid.nodes
        K = cd_kernel(ortho20, 1, x, x)
        assert abs(np.dot(w, np.diag(K)) - 19.0) < 1e-8

    def test_sum_and_ratio_forms_agree(self, ortho20):
        # Christoffel-Darboux: the sum over the first n-j functions equals
        # the two-term ratio form with gamma_{nj-1}/gamma_{nj} = recur_b[nj]
        x, y = 1.3, 1.3 + 1e-3
        nj = 19
        px = ortho20.psi_at(np.array([x, y]))
        sum_form = float(cd_kernel(ortho20, 1, np.array([x]), np.array([y]))[0, 0])
        ratio_form = ortho20.recur_b[nj] * (px[nj, 0] * px[nj - 1, 1]
                                            - px[nj - 1, 0] * px[nj, 1]) / (x - y)
        assert abs(ratio_form - sum_form) < 1e-8

    def test_edge_scaling_approaches_airy_kernel(self, ortho20, eq_gue):
        bn = eq_gue.beta * 20 ** (2.0 / 3.0)
        x = 2.0 + 1.0 / bn
        ai, aip = airy_ai_pair(np.array([1.0]))
        k_airy_diag = aip[0] ** 2 - 1.0 * ai[0] ** 2
        assert abs(cd_kernel(ortho20, 1, np.array([x]), np.array([x]))[0, 0] / bn - k_airy_diag) < 0.05


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
        # log |Gamma_{n-j}(a)| recombined from the scaled value
        gamma_log = sk.log_shift + math.log(abs(float(sk.gamma_scaled[20 - 1])))
        assert abs(gamma_log - laplace) < 2.0

    def test_tilt_projection_sign_linearity(self, ortho20):
        w = ortho20.grid.weights
        tilt = np.exp(20.0 * (0.5 * ortho20.grid.nodes - 0.5 * GUE.eval(ortho20.grid.nodes)))
        psi19 = grid_psi(ortho20)[19]
        plus = np.dot(w, tilt * psi19)
        minus = np.dot(w, tilt * (-psi19))
        assert plus == -minus

    def test_zero_spike_projection_two_orders(self, ortho20):
        w = ortho20.grid.weights
        root = np.exp(-10.0 * GUE.eval(ortho20.grid.nodes))
        psi19 = grid_psi(ortho20)[19]
        one_way = float(np.dot(w * root, psi19))
        other = float(np.dot(w, root * psi19))
        assert abs(one_way - other) < 1e-12
        assert abs(one_way) < 1e-10

    def test_characterizing_inner_products(self, ortho16):
        sk = build_spiked(ortho16, 0.5, 1)
        w = ortho16.grid.weights
        psi = grid_psi(ortho16)
        tpsi = sk.tilde_psi_at(ortho16.grid.nodes, psi)
        nj = 15
        for k in range(nj - 3, nj):
            val = np.dot(w, tpsi * psi[k])
            assert abs(val) < 1e-7
        assert abs(np.dot(w, tpsi * psi[nj]) - 1.0) < 1e-7
        for k in (0, 5, 9):
            assert abs(np.dot(w, tpsi * psi[k])) < 1e-7

    @pytest.mark.parametrize("j", [1, 2])
    def test_projection_algebra(self, ortho16, j):
        sk = build_spiked(ortho16, 0.5, j)
        x = ortho16.grid.nodes
        w = ortho16.grid.weights
        nj = 16 - j
        px = ortho16.psi_at(x)
        Kt = px[:nj].T @ px[:nj] + np.outer(sk.tilde_psi_at(x, px), px[nj])
        Kt2 = (Kt * w) @ Kt
        assert np.max(np.abs(Kt2 - Kt)) < 1e-6
        assert abs(np.dot(w, np.diag(Kt)) - (16 - j + 1)) < 1e-6

    def test_zero_spike_degenerates_to_unspiked(self, ortho16):
        sk = build_spiked(ortho16, 0.0, 1)
        psi = grid_psi(ortho16)
        tpsi = sk.tilde_psi_at(ortho16.grid.nodes, psi)
        assert np.max(np.abs(tpsi - psi[15])) == 0.0

    def test_tilt_too_strong_rejected(self, ortho16):
        with pytest.raises(GridError):
            build_spiked(ortho16, 0.5 * GUE.eval(ortho16.grid.interval[1], 1) + 1.0, 1)


class TestGapProbability:
    def test_empty_set(self, ortho20):
        sk = build_spiked(ortho20, 0.5, 1)
        assert gap_probability_raw(sk, []) == 1.0

    def test_full_line_has_no_gap(self, ortho20):
        sk = build_spiked(ortho20, 0.5, 1)
        L = ortho20.grid.interval[1]
        assert gap_probability_raw(sk, [(-L, np.inf)]) < 1e-8

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
        both = gap_probability_raw(sk, [(1.8, 2.2), (2.4, np.inf)])
        single = gap_probability_raw(sk, [(1.8, np.inf)])
        assert 0.0 < single < both < 1.0

    def test_monotone_in_nested_tails(self, ortho20):
        sk = build_spiked(ortho20, 0.5, 1)
        probs = [gap_probability_raw(sk, [(t, np.inf)]) for t in (1.6, 1.9, 2.2, 2.5)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_spike_continuity(self, ortho16):
        a = 0.5
        g1 = gap_probability_raw(build_spiked(ortho16, a, 1), [(2.2, np.inf)])
        g2 = gap_probability_raw(build_spiked(ortho16, a + 1e-6, 1), [(2.2, np.inf)])
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
            errs.append(abs(gap_probability_raw(sk, [(thr, np.inf)]) - target))
        # centering at the leading-order edge leaves an O(n^{-1/3}) shift,
        # so the error contracts by about 2^{1/3} = 1.26 per doubling
        assert errs[0] > 1.15 * errs[1] > 1.15 * 1.15 * errs[2]
        assert errs[2] < 0.02
