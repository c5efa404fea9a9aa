import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fbm.assembly import make_problem
from fbm.special import (N_MAX, BasisContext, _bessel_ratios, bessel_j,
                         ladder_coefficients, ladder_constants,
                         nested_coefficients, nested_values, radial_profiles)

from oracles import (basis_gradient_oracle, basis_value, basis_value_oracle,
                     basis_values, bessel_j_oracle, central_difference,
                     complex_values)

T_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]


class TestBesselJ:
    def test_series_constant_term(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_positive_order_vanishes_at_origin(self):
        assert bessel_j(3, 0.0) == 0.0

    def test_j0_at_one(self):
        # frozen from the power-series oracle
        assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-12)

    def test_reflection_is_exact(self):
        for n in range(1, 41, 3):
            for t in T_GRID:
                assert bessel_j(-n, t) == (-1.0) ** n * bessel_j(n, t)

    @pytest.mark.parametrize("t", T_GRID)
    def test_matches_series_oracle(self, t):
        for n in range(0, 41):
            assert bessel_j(n, t) == pytest.approx(bessel_j_oracle(n, t), abs=1e-12)

    def test_large_argument_against_oracle(self):
        for n in (0, 10, 40, 64):
            for t in (30.0, 50.0, 64.0):
                assert bessel_j(n, t) == pytest.approx(bessel_j_oracle(n, t), abs=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            bessel_j(N_MAX + 1, 1.0)
        bessel_j(N_MAX, 1.0)  # at the cap is fine


def _envelope(n: int, t: float, j_n: float) -> float:
    """Scale of J_n near t: |J_n| for t <= n, and sqrt(J_n^2 + Y_n^2),
    the envelope of its oscillation, beyond the turning point."""
    if t <= n:
        return abs(j_n)
    return math.hypot(j_n, float(mp.bessely(n, t)))


class TestKernelAccuracy:
    def test_oracle_envelope_around_kr_12(self):
        # by t = 12 the terms of the power series of J_0 reach ~4e3
        # against |J_0| ~ 0.05, so summing it in doubles loses ~5 digits
        ts = list(np.linspace(11.0, 13.0, 9)) + [16.0, 32.0, 48.0, 64.0]
        for t in ts:
            for n in range(0, 65):
                ref = bessel_j_oracle(n, t)
                assert abs(bessel_j(n, t) - ref) <= 1e-14 * _envelope(n, t, ref)
        # kr = 11.5 + 0.1 j stays >= 0.025 from the zeros of these J_n
        ctx = BasisContext(k=5.0, M=2.6)
        for kr in np.linspace(11.5, 12.5, 11):
            rad = kr / ctx.k
            p = [rad * np.cos(0.7), rad * np.sin(0.7)]
            for n in (0, 1, 2, 5, 8, 13, -20):
                ref = basis_value_oracle(ctx.k, ctx.M, n, p)
                assert basis_value(ctx, n, p) == pytest.approx(ref, rel=1e-12)


class TestRecurrenceProperties:
    def test_three_term_recurrence(self):
        ts = np.linspace(0.1, 40.0, 29)
        for n in range(1, 41):
            for t in ts:
                lhs = bessel_j(n - 1, t) + bessel_j(n + 1, t)
                rhs = (2.0 * n / t) * bessel_j(n, t)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(bessel_j(n, t)))


class TestBasisValue:
    def test_order_zero_at_origin(self):
        ctx = BasisContext(k=3.0, M=1.5)
        assert basis_value(ctx, 0, [0.0, 0.0]) == 1.0 + 0.0j

    def test_higher_order_at_origin(self):
        ctx = BasisContext(k=3.0, M=1.5)
        assert basis_value(ctx, 2, [0.0, 0.0]) == 0.0

    def test_unit_point(self):
        # 2*1!/(1*2) * J_1(1), frozen from the series oracle
        ctx = BasisContext(k=1.0, M=2.0)
        assert basis_value(ctx, 1, [1.0, 0.0]) == pytest.approx(
            0.4400505857449335, abs=1e-12)

    def test_against_composed_oracle(self):
        ctx = BasisContext(k=2.0, M=2.5)
        rng = np.random.default_rng(7)
        for n in (-9, -2, 0, 1, 5, 12):
            for _ in range(5):
                ang = rng.uniform(0, 2 * np.pi)
                rad = rng.uniform(0.05, 2.4)
                p = [rad * np.cos(ang), rad * np.sin(ang)]
                ref = basis_value_oracle(ctx.k, ctx.M, n, p)
                assert basis_value(ctx, n, p) == pytest.approx(ref, abs=1e-12)

    def test_large_order_stays_finite(self):
        # prefactor and J_n separately overflow/underflow here; the
        # profile, accumulated from ratios of moderate size, must not
        ctx = BasisContext(k=0.5, M=2.0)
        value = basis_value(ctx, 120, [0.5, 0.3])
        ref = basis_value_oracle(ctx.k, ctx.M, 120, [0.5, 0.3])
        assert np.isfinite(value.real) and np.isfinite(value.imag)
        assert value == pytest.approx(ref, rel=1e-10, abs=1e-250)

    def test_bessel_lower_bound_small_argument(self):
        # |J_n(k r_in)| >= 0.75 (k r_in)^n / (2^n n!) whenever k*r_in <= 1
        for k_r_in in (0.4615, 0.923, 1.0):
            for n in range(0, 51):
                lhs = abs(bessel_j(n, k_r_in))
                rhs = 0.75 * (0.5 * k_r_in) ** n / math.factorial(n)
                assert lhs >= rhs

    def test_profiles_are_the_cumulative_product(self):
        # accumulated row by row, R_n = R_{n-1} (2n / kM) rho_n is bitwise
        # np.cumprod of the scaled ratios along the order axis
        ctx = BasisContext(k=20.0, M=2.2)
        r = np.append(np.random.default_rng(41).uniform(0.0, 2.0, 500), 0.0)
        ratios = _bessel_ratios(60, ctx.k * r)
        ratios[1:] *= (2.0 / (ctx.k * ctx.M)) * np.arange(1, 61)[:, None]
        assert np.array_equal(radial_profiles(ctx, 60, r),
                              np.cumprod(ratios, axis=0))

    def test_nested_values_against_composed_oracle(self):
        # Re phi_0, Re phi_1, Im phi_1, ...: row 2n - 1 holds Re phi_n and
        # row 2n Im phi_n
        ctx = BasisContext(k=2.0, M=2.5)
        rng = np.random.default_rng(8)
        ang = rng.uniform(0, 2 * np.pi, size=6)
        rad = rng.uniform(0.05, 2.4, size=6)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        nested = nested_values(ctx, 12, pts)
        assert nested.shape == (25, 6)
        for p, column in zip(pts, nested.T):
            assert column[0] == pytest.approx(
                basis_value_oracle(ctx.k, ctx.M, 0, p).real, abs=1e-12)
            for n in (1, 2, 5, 12):
                ref = basis_value_oracle(ctx.k, ctx.M, n, p)
                assert column[2 * n - 1] == pytest.approx(ref.real, abs=1e-12)
                assert column[2 * n] == pytest.approx(ref.imag, abs=1e-12)

    @pytest.mark.parametrize("n", [64, 100, 128])
    def test_high_order_phases(self, n):
        # the phase recurrence rounds like n eps; near theta = +-pi and
        # +-pi/2 the oracle's exp(i n theta) is exact up to the same size
        ctx = BasisContext(k=1.0, M=2.0)
        rad = 0.97 * ctx.M
        for ang in (np.pi - 1e-9, -np.pi + 1e-9, np.pi / 2 + 1e-7,
                    -np.pi / 2 - 1e-7):
            p = [rad * np.cos(ang), rad * np.sin(ang)]
            for order in (n, -n):
                ref = basis_value_oracle(ctx.k, ctx.M, order, p)
                assert basis_value(ctx, order, p) == pytest.approx(ref, rel=1e-12)
        ref = basis_value_oracle(ctx.k, ctx.M, n, [-rad, 0.0])
        assert basis_value(ctx, n, [-rad, 0.0]) == pytest.approx(ref, rel=1e-12)


class TestLadderConstants:
    @pytest.mark.parametrize("k, M", [(0.5, 4.06), (1.0, 2.0306),
                                      (5.0, 1.985), (20.0, 2.2)])
    def test_lowering_after_raising_is_laplacian(self, k, M):
        # D- D+ = Laplacian = -k^2 on phi_n, so a_n b_{n+1} = -k^2
        a, b = ladder_constants(BasisContext(k=k, M=M), N_MAX)
        assert np.max(np.abs(a[:-1] * b[1:] + k * k)) <= 1e-14 * k * k

    @pytest.mark.parametrize("k, M", [(0.5, 4.06), (5.0, 1.985)])
    def test_conjugation_symmetry(self, k, M):
        # phi_{-n} = (-1)^n conj(phi_n) and conj(D+ f) = D- conj(f) give
        # a_{-n} = -b_n and b_{-n} = -a_n
        a, b = ladder_constants(BasisContext(k=k, M=M), N_MAX)
        assert np.array_equal(a[::-1], -b)
        assert np.array_equal(b[::-1], -a)


def _gradient_envelopes(ctx: BasisContext, m_max: int, r: float) -> list:
    """Scale of grad phi_{+-m} at radius r for m = 0..m_max:
    p_m k (|H_m| + |H_{m+1}|) + |p_m m J_m / r|, with |J| in place of
    |H| below the turning point."""
    t = ctx.k * r
    j = [bessel_j_oracle(m, t) for m in range(m_max + 2)]
    env = [_envelope(m, t, j[m]) for m in range(m_max + 2)]
    out = []
    for m in range(m_max + 1):
        pref = float(mp.mpf(2) ** m * mp.factorial(m) / mp.mpf(ctx.k * ctx.M) ** m)
        out.append(pref * ctx.k * (env[m] + env[m + 1]) + abs(pref * m * j[m] / r))
    return out


def _ladder_gradient(ctx: BasisContext, N: int, n: int, points) -> np.ndarray:
    """grad phi_n at points, shape (P, 2), the way the pipeline forms it:
    basis values of order N + 1 times ladder_coefficients of the unit
    coefficient vector e_n of order N."""
    unit = np.zeros(2 * N + 1, dtype=complex)
    unit[N + n] = 1.0
    return (basis_values(ctx, N + 1, points) @ ladder_coefficients(ctx, unit))[:, 1:]


class TestBasisGradient:
    @pytest.mark.parametrize("k", [1.0, 5.0, 20.0])
    def test_against_polar_oracle(self, k):
        ctx = BasisContext(k=k, M=2.2)
        rng = np.random.default_rng(int(k) + 100)
        ang = rng.uniform(-np.pi, np.pi, 5)
        rad = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 5))
        pts = np.vstack([np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]),
                         [[-0.3, 0.0], [-1.7, -0.0]]])
        scales = [_gradient_envelopes(ctx, 40, float(np.hypot(p[0], p[1])))
                  for p in pts]
        for n in range(-40, 41):
            grads = _ladder_gradient(ctx, 40, n, pts)
            for i, p in enumerate(pts):
                ref = basis_gradient_oracle(ctx.k, ctx.M, n, p)
                err = np.max(np.abs(grads[i] - ref))
                assert err <= 1e-13 * scales[i][abs(n)]

    def test_zero_at_origin_for_order_zero(self):
        ctx = BasisContext(k=2.0, M=3.0)
        assert np.allclose(_ladder_gradient(ctx, 0, 0, [0.0, 0.0]), 0.0)

    def test_radial_gradient_on_axis(self):
        ctx = BasisContext(k=1.0, M=2.0)
        [g] = _ladder_gradient(ctx, 0, 0, [1.0, 0.0])
        assert g[0] == pytest.approx(-0.4400505857449335, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-14)

    def test_origin_limit_order_one(self):
        ctx = BasisContext(k=1.7, M=2.3)
        [g_pos] = _ladder_gradient(ctx, 1, 1, [0.0, 0.0])
        [g_neg] = _ladder_gradient(ctx, 1, -1, [0.0, 0.0])
        assert g_pos == pytest.approx(np.array([1.0, 1.0j]) / ctx.M, abs=1e-14)
        assert g_neg == pytest.approx(np.array([-1.0, 1.0j]) / ctx.M, abs=1e-14)
        # values just off the origin approach the same limit
        [g_near] = _ladder_gradient(ctx, 1, 1, [1e-9, -1e-9])
        assert np.allclose(g_near, g_pos, atol=1e-8)

    def test_finite_difference_agreement(self):
        ctx = BasisContext(k=1.0, M=2.0306)
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(-14, 15))
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.1, ctx.M)
            p = np.array([rad * np.cos(ang), rad * np.sin(ang)])
            [grad] = _ladder_gradient(ctx, abs(n), n, p)
            fd = central_difference(lambda x: basis_value(ctx, n, x), p)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) <= 1e-6 * scale


class TestBatchConsistency:
    def test_matrix_matches_scalar_entries(self):
        ctx = BasisContext(k=5.0, M=1.985)
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1.8, 1.8, size=(40, 2))
        N = 12
        values = basis_values(ctx, N, pts)
        for i in (0, 13, 39):
            for n in (-N, -3, 0, 2, N):
                v = basis_value(ctx, n, pts[i])
                assert values[i, N + n] == pytest.approx(v, rel=1e-12, abs=1e-300)

    def test_storage_is_order_major(self):
        # each row is written as one contiguous row, a (2N+1, P) matrix
        # ready for one BLAS product, returned as the array it fills
        ctx = BasisContext(k=5.0, M=1.985)
        pts = np.random.default_rng(29).uniform(-1.8, 1.8, size=(30, 2))
        nested = nested_values(ctx, 7, pts)
        assert nested.shape == (15, 30)
        assert nested.flags.c_contiguous
        assert nested.base is None

    @pytest.mark.parametrize("N", [1, 2, 7])
    def test_negative_orders_are_conjugates(self, N):
        # phi_{-n} = (-1)^n conj(phi_n) since R_n is real, exactly, on and
        # off the axes
        ctx = BasisContext(k=5.0, M=1.985)
        rng = np.random.default_rng(31)
        pts = np.vstack([rng.uniform(-1.8, 1.8, size=(50, 2)),
                         [[0.0, 0.0], [-0.7, 0.0], [-1.5, 0.0], [-1.5, -0.0]]])
        values = basis_values(ctx, N, pts)
        for n in range(1, N + 1):
            sign = (-1.0) ** n
            assert np.array_equal(values[:, N - n], sign * np.conj(values[:, N + n]))

    @pytest.mark.parametrize("N", [0, 1, 33])
    @pytest.mark.parametrize("k", [0.5, 5.0, 20.0])
    def test_complex_values_read_off_nested_rows(self, kite_radii, kite_grid,
                                                 k, N):
        # the oracle's complex columns are the nested rows' parts, orders
        # -n mirrored as (-1)^n conj(phi_n), each order one contiguous row;
        # at N = 0 there is nothing to mirror
        ctx = make_problem(kite_radii, k, 2.2, 33).basis
        values = basis_values(ctx, N, kite_grid.points)
        nested = nested_values(ctx, N, kite_grid.points)
        assert nested.shape == values.T.shape == (2 * N + 1,
                                                  kite_grid.points.shape[0])
        assert nested.flags.c_contiguous
        assert np.array_equal(nested[0], values[:, N].real)
        assert np.array_equal(nested[1::2], values[:, N + 1:].real.T)
        assert np.array_equal(nested[2::2], values[:, N + 1:].imag.T)
        read = complex_values(nested)
        assert read.T.flags.c_contiguous
        assert np.array_equal(read, values)
        assert not np.any(read[:, N].imag)
        for n in range(1, N + 1):
            assert np.array_equal(read[:, N - n],
                                  (-1.0) ** n * np.conj(read[:, N + n]))

    def test_nested_values_fill_their_rows_in_place(self, kite_radii,
                                                    kite_grid):
        # the radial profiles R_0..R_N are computed in the rows they then
        # fill, so evaluating holds little beyond the result; a separate
        # profile array would add half of it
        ctx = make_problem(kite_radii, 5.0, 2.2, 33).basis
        tracemalloc.start()
        try:
            nested = nested_values(ctx, 33, kite_grid.points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * nested.nbytes

    def test_nested_fold_matches_complex_expansion(self):
        # nested values times the folded coefficients give Re and Im of u,
        # du/dx and du/dy; a stack of vectors folds vector by vector
        ctx = BasisContext(k=5.0, M=1.985)
        rng = np.random.default_rng(37)
        pts = rng.uniform(-1.8, 1.8, size=(40, 2))
        coeffs = (rng.standard_normal((4, 25))
                  + 1j * rng.standard_normal((4, 25)))
        blocks = ladder_coefficients(ctx, coeffs)
        folded = nested_coefficients(blocks)
        assert blocks.shape == (4, 27, 3) and folded.shape == (4, 6, 27)
        values = basis_values(ctx, 13, pts)
        nested = nested_values(ctx, 13, pts)
        for c, block, rows in zip(coeffs, blocks, folded):
            assert np.array_equal(block, ladder_coefficients(ctx, c))
            assert np.array_equal(rows, nested_coefficients(block))
            ref = (values @ block).T                     # (3, 40) complex
            got = rows @ nested                          # (6, 40) real
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(got[0::2] + 1j * got[1::2] - ref)
                          <= 1e-13 * scale)

    def test_pure_functions_are_reproducible(self):
        ctx = BasisContext(k=2.0, M=1.5)
        pts = np.array([[0.3, -0.4], [0.0, 0.0], [1.2, 0.7]])
        assert np.array_equal(nested_values(ctx, 6, pts),
                              nested_values(ctx, 6, pts))

    def test_context_validation(self):
        with pytest.raises(ValueError):
            BasisContext(k=0.0, M=1.0)
        with pytest.raises(ValueError):
            BasisContext(k=1.0, M=-2.0)
