import math

import mpmath as mp
import numpy as np
import pytest

from fbm.special import (N_MAX, BasisContext, basis_gradient, basis_matrix,
                         basis_value, bessel_j, bessel_j_prime,
                         ladder_constants)

from oracles import (basis_gradient_oracle, basis_value_oracle,
                     bessel_j_oracle, bessel_j_prime_oracle,
                     central_difference)

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


class TestBesselJPrime:
    def test_at_one(self):
        # equals -J_1(1), frozen from the series oracle
        assert bessel_j_prime(0, 1.0) == pytest.approx(-0.4400505857449335, abs=1e-12)

    def test_origin_limits(self):
        assert bessel_j_prime(0, 0.0) == 0.0
        assert bessel_j_prime(1, 0.0) == 0.5
        assert bessel_j_prime(-1, 0.0) == -0.5
        assert bessel_j_prime(2, 0.0) == 0.0

    @pytest.mark.parametrize("t", T_GRID)
    def test_matches_neighbor_identity_oracle(self, t):
        for n in range(0, 30, 2):
            assert bessel_j_prime(n, t) == pytest.approx(
                bessel_j_prime_oracle(n, t), abs=1e-12)


class TestRecurrenceProperties:
    def test_three_term_recurrence(self):
        ts = np.linspace(0.1, 40.0, 29)
        for n in range(1, 41):
            for t in ts:
                lhs = bessel_j(n - 1, t) + bessel_j(n + 1, t)
                rhs = (2.0 * n / t) * bessel_j(n, t)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(bessel_j(n, t)))

    def test_derivative_value_consistency(self):
        # both neighbor forms of J_n' must agree with bessel_j_prime
        ts = np.linspace(0.1, 40.0, 17)
        for n in range(1, 41, 2):
            for t in ts:
                d = bessel_j_prime(n, t)
                upward = n / t * bessel_j(n, t) - bessel_j(n + 1, t)
                symmetric = 0.5 * (bessel_j(n - 1, t) - bessel_j(n + 1, t))
                assert abs(d - upward) <= 1e-10
                assert abs(d - symmetric) <= 1e-10


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


class TestBasisGradient:
    @pytest.mark.parametrize("k", [1.0, 5.0, 20.0])
    def test_against_polar_oracle(self, k):
        ctx = BasisContext(k=k, M=2.2)
        rng = np.random.default_rng(int(k) + 100)
        ang = rng.uniform(-np.pi, np.pi, 5)
        rad = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 5))
        pts = np.vstack([np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]),
                         [[-0.3, 0.0], [-1.7, -0.0]]])
        _, grads = basis_matrix(ctx, 40, pts)
        for i, p in enumerate(pts):
            scale = _gradient_envelopes(ctx, 40, float(np.hypot(p[0], p[1])))
            for n in range(-40, 41):
                ref = basis_gradient_oracle(ctx.k, ctx.M, n, p)
                err = np.max(np.abs(grads[i, 40 + n] - ref))
                assert err <= 1e-13 * scale[abs(n)]

    def test_zero_at_origin_for_order_zero(self):
        ctx = BasisContext(k=2.0, M=3.0)
        assert np.allclose(basis_gradient(ctx, 0, [0.0, 0.0]), 0.0)

    def test_radial_gradient_on_axis(self):
        ctx = BasisContext(k=1.0, M=2.0)
        g = basis_gradient(ctx, 0, [1.0, 0.0])
        assert g[0] == pytest.approx(-0.4400505857449335, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-14)

    def test_origin_limit_order_one(self):
        ctx = BasisContext(k=1.7, M=2.3)
        g_pos = basis_gradient(ctx, 1, [0.0, 0.0])
        g_neg = basis_gradient(ctx, -1, [0.0, 0.0])
        assert g_pos == pytest.approx(np.array([1.0, 1.0j]) / ctx.M, abs=1e-14)
        assert g_neg == pytest.approx(np.array([-1.0, 1.0j]) / ctx.M, abs=1e-14)
        # values just off the origin approach the same limit
        g_near = basis_gradient(ctx, 1, [1e-9, -1e-9])
        assert np.allclose(g_near, g_pos, atol=1e-8)

    def test_finite_difference_agreement(self):
        ctx = BasisContext(k=1.0, M=2.0306)
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(-14, 15))
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.1, ctx.M)
            p = np.array([rad * np.cos(ang), rad * np.sin(ang)])
            grad = basis_gradient(ctx, n, p)
            fd = central_difference(lambda x: basis_value(ctx, n, x), p)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) <= 1e-6 * scale


class TestBatchConsistency:
    def test_matrix_matches_scalar_entries(self):
        ctx = BasisContext(k=5.0, M=1.985)
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1.8, 1.8, size=(40, 2))
        N = 12
        values, grads = basis_matrix(ctx, N, pts)
        for i in (0, 13, 39):
            for n in (-N, -3, 0, 2, N):
                v = basis_value(ctx, n, pts[i])
                g = basis_gradient(ctx, n, pts[i])
                assert values[i, N + n] == pytest.approx(v, rel=1e-12, abs=1e-300)
                assert grads[i, N + n] == pytest.approx(g, rel=1e-12, abs=1e-300)

    def test_storage_is_order_major(self):
        # each order is written as one contiguous row, and each gradient
        # component is a (2N+1, P) matrix ready for one BLAS product
        ctx = BasisContext(k=5.0, M=1.985)
        pts = np.random.default_rng(29).uniform(-1.8, 1.8, size=(30, 2))
        values, grads = basis_matrix(ctx, 7, pts)
        assert values.shape == (30, 15)
        assert grads.shape == (30, 15, 2)
        assert values.T.flags.c_contiguous
        for d in (0, 1):
            assert grads[:, :, d].T.flags.c_contiguous
        values_only, none = basis_matrix(ctx, 7, pts, gradients=False)
        assert none is None
        assert values_only.T.flags.c_contiguous

    @pytest.mark.parametrize("N", [1, 2, 7])
    def test_negative_orders_are_conjugates(self, N):
        # phi_{-n} = (-1)^n conj(phi_n) since R_n is real, exactly, for the
        # values and both gradient components, on and off the axes
        ctx = BasisContext(k=5.0, M=1.985)
        rng = np.random.default_rng(31)
        pts = np.vstack([rng.uniform(-1.8, 1.8, size=(50, 2)),
                         [[0.0, 0.0], [-0.7, 0.0], [-1.5, 0.0], [-1.5, -0.0]]])
        values, grads = basis_matrix(ctx, N, pts)
        for n in range(1, N + 1):
            sign = (-1.0) ** n
            assert np.array_equal(values[:, N - n], sign * np.conj(values[:, N + n]))
            for d in (0, 1):
                assert np.array_equal(grads[:, N - n, d],
                                      sign * np.conj(grads[:, N + n, d]))

    def test_pure_functions_are_reproducible(self):
        ctx = BasisContext(k=2.0, M=1.5)
        pts = np.array([[0.3, -0.4], [0.0, 0.0], [1.2, 0.7]])
        a1, g1 = basis_matrix(ctx, 6, pts)
        a2, g2 = basis_matrix(ctx, 6, pts)
        assert np.array_equal(a1, a2)
        assert np.array_equal(g1, g2)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            BasisContext(k=0.0, M=1.0)
        with pytest.raises(ValueError):
            BasisContext(k=1.0, M=-2.0)
