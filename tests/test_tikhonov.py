import logging
import math

import mpmath as mp
import numpy as np
import pytest

from fbm.assembly import (assemble_operator, boundary_data_from_weighted,
                          make_problem, plane_wave_data)
from fbm.errors import NumericalError, ValidationError
from fbm.geometry import (DomainRadii, build_quadrature, circle_curve,
                          compute_radii, default_node_count, named_curve)
from fbm.tikhonov import (_leading_block_mu_min, mu_min_bound,
                          select_parameters, svd, svd_decay_study,
                          tikhonov_solve)

from oracles import bessel_j_oracle


def _pref(problem, n: int):
    """pref_n = 2^|n| |n|! / (k M)^|n|, in mpmath."""
    m = abs(n)
    return (mp.mpf(2) ** m * mp.factorial(m)
            / (mp.mpf(problem.k) * mp.mpf(problem.M)) ** m)


def _disc(k: float, N: int, tau0: float):
    """Problem, rule and SVD of the unit circle at order N, with the
    closed-form singular values sigma_n, n = -N..N: on a circle of radius
    R, sigma_n = sqrt(2 pi R) pref_n k |i J_n(kR) + J_n'(kR)|. N is passed
    explicitly: the disc's tau_min = 1 caps N in the selection rule."""
    radius = 1.0
    curve = circle_curve(radius)
    problem = make_problem(compute_radii(curve), k, tau0, N)
    rule = build_quadrature(curve, default_node_count(N))
    t = k * radius
    sigma = []
    with mp.workdps(60):
        for n in range(-N, N + 1):
            j_n = mp.mpf(bessel_j_oracle(n, t))
            dj_n = (mp.mpf(bessel_j_oracle(n - 1, t))
                    - mp.mpf(bessel_j_oracle(n + 1, t))) / 2
            sigma.append(float(mp.sqrt(2 * mp.pi * radius) * _pref(problem, n)
                               * k * mp.sqrt(j_n ** 2 + dj_n ** 2)))
    return problem, rule, svd(assemble_operator(problem, rule)), np.array(sigma)


@pytest.fixture(scope="module")
def kite_system(kite, kite_radii):
    prob = make_problem(kite_radii, 1.0, 2.2, 10)
    rule = build_quadrature(kite, default_node_count(10))
    op = assemble_operator(prob, rule)
    return prob, rule, op, svd(op)


class TestSvd:
    def test_diagonal_matrix(self):
        matrix = np.zeros((6, 3), dtype=complex)
        matrix[0, 0], matrix[1, 1], matrix[2, 2] = 3.0, 1.0, 2.0
        system = svd(matrix)
        assert np.allclose(system.singular_values, [3.0, 2.0, 1.0])

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((20, 5))
                            + 1j * rng.standard_normal((20, 5)))
        system = svd(q)
        assert np.allclose(system.singular_values, 1.0, atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((64, 9)) + 1j * rng.standard_normal((64, 9))
        system = svd(matrix)
        rebuilt = (system.left_vectors * system.singular_values) \
            @ system.right_vectors.conj().T
        assert np.linalg.norm(rebuilt - matrix) <= 1e-10 * np.linalg.norm(matrix)

    def test_singular_triplets(self, kite_system):
        _, _, op, system = kite_system
        assert system.singular_values.shape == (21,)
        assert np.all(np.diff(system.singular_values) <= 0.0)
        for j in (0, 10, 20):
            lhs = op @ system.right_vectors[:, j]
            rhs = system.singular_values[j] * system.left_vectors[:, j]
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * system.mu_max
        gram_left = system.left_vectors.conj().T @ system.left_vectors
        gram_right = system.right_vectors.conj().T @ system.right_vectors
        assert np.linalg.norm(gram_left - np.eye(21)) <= 1e-10
        assert np.linalg.norm(gram_right - np.eye(21)) <= 1e-10

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValidationError):
            svd(np.ones((3, 5)))

    @pytest.mark.parametrize("k, N, tau0, overridden", [
        (1.0, 10, 1.5, False), (5.0, 20, 1.5, True)])
    def test_disc_spectrum_in_closed_form(self, k, N, tau0, overridden):
        # on the disc the trapezoid rule makes the columns orthogonal, so
        # the singular values are the closed-form sigma_n
        problem, _, system, sigma = _disc(k, N, tau0)
        assert problem.m_overridden is overridden
        exact = np.sort(sigma)[::-1]
        assert np.max(np.abs(system.singular_values - exact) / exact) <= 1e-13


class TestTikhonovSolve:
    def test_zero_rhs(self, kite_system):
        _, rule, _, system = kite_system
        rhs = boundary_data_from_weighted(np.zeros(rule.size, dtype=complex), rule)
        c = tikhonov_solve(system, rhs, 1e-6)
        assert np.all(c.coeffs == 0.0)

    def test_manufactured_recovery(self, kite_system):
        _, rule, op, system = kite_system
        rng = np.random.default_rng(10)
        c_true = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        rhs = boundary_data_from_weighted(op @ c_true, rule)
        c = tikhonov_solve(system, rhs, 1e-30)
        rel = np.linalg.norm(c.coeffs - c_true) / np.linalg.norm(c_true)
        assert rel <= 1e-8

    def test_coefficient_norm_monotone_in_alpha(self, kite_system, direction):
        prob, rule, _, system = kite_system
        rhs = plane_wave_data(prob, rule, direction)
        norms = [np.linalg.norm(tikhonov_solve(system, rhs, a).coeffs)
                 for a in np.logspace(-12, 6, 19)]
        assert all(n2 <= n1 * (1 + 1e-12) for n1, n2 in zip(norms, norms[1:]))
        # strong damping sends the solution to zero
        assert norms[-1] <= 1e-4 * norms[0]

    def test_alpha_zero_is_least_squares(self, kite_system, direction):
        prob, rule, op, system = kite_system
        rhs = plane_wave_data(prob, rule, direction)
        c = tikhonov_solve(system, rhs, 0.0)
        residual = op @ c.coeffs - rhs
        assert np.linalg.norm(op.conj().T @ residual) \
            <= 1e-10 * np.linalg.norm(rhs) * system.mu_max

    def test_normal_equation_residual(self, kite_system, direction):
        prob, rule, op, system = kite_system
        rhs = plane_wave_data(prob, rule, direction)
        for alpha in (1e-8, 1e-4, 1e-1):
            c = tikhonov_solve(system, rhs, alpha)
            gram_rhs = op.conj().T @ rhs
            lhs = alpha * c.coeffs + op.conj().T @ (op @ c.coeffs)
            assert np.linalg.norm(lhs - gram_rhs) <= 1e-10 * np.linalg.norm(gram_rhs)

    @pytest.mark.parametrize("k, N, tau0", [(1.0, 10, 1.5), (5.0, 20, 1.5)])
    def test_disc_filters_jacobi_anger_coefficients(self, k, N, tau0,
                                                    direction):
        # Jacobi-Anger (DLMF 10.12.1) gives the plane wave the coefficients
        # c_n = i^n e^{-in theta_d} / pref_n, and the disc's orthogonal
        # columns make the solve from exact data the filtered
        # sigma_n^2 / (alpha + sigma_n^2) c_n; orders |m| >= M_q - N, which
        # alias onto these, carry J_m(k) far below rounding. alpha = 1e-30
        # damps no order, alpha = 100 most of them. Every order's error sits
        # at rounding of the largest coefficient, while c_n falls like
        # 1/pref_n, so only the low orders are held to their own size
        problem, rule, system, sigma = _disc(k, N, tau0)
        data = plane_wave_data(problem, rule, direction)
        theta_d = math.atan2(direction[1], direction[0])
        with mp.workdps(60):
            c = [complex(mp.mpc(0, 1) ** n * mp.expj(-n * theta_d)
                         / _pref(problem, n)) for n in range(-N, N + 1)]
        low = np.abs(np.arange(-N, N + 1)) <= 5
        for alpha in (1e-30, 1e-2, 1.0, 1e2):
            exact = sigma ** 2 / (alpha + sigma ** 2) * np.array(c)
            got = tikhonov_solve(system, data, alpha).coeffs
            assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
            assert np.max(np.abs(got - exact)[low] / np.abs(exact[low])) <= 1e-11

    def test_rank_guard(self):
        matrix = np.zeros((4, 3), dtype=complex)
        matrix[0, 0], matrix[1, 1], matrix[2, 2] = 1.0, 1.0, 1e-15
        system = svd(matrix)
        rhs = np.ones(4, dtype=complex)
        with pytest.raises(NumericalError) as err:
            tikhonov_solve(system, rhs, 0.0)
        assert err.value.code == "rank_deficient"

    def test_negative_alpha_rejected(self, kite_system):
        _, rule, _, system = kite_system
        rhs = boundary_data_from_weighted(np.zeros(rule.size, dtype=complex), rule)
        with pytest.raises(ValidationError):
            tikhonov_solve(system, rhs, -1.0)


class TestSelectParameters:
    def test_small_k_worked_example(self, kite_radii):
        plan = select_parameters(0.5, 0.01, 5.0, kite_radii, 2.2)
        assert plan.branch == "small_k"
        assert plan.N == 8
        assert plan.alpha == pytest.approx(0.25 * 0.01 * 2.2 ** -16, rel=1e-12)

    def test_large_k_worked_example(self, kite_radii):
        plan = select_parameters(5.0, 0.01, 5.0, kite_radii, 2.2)
        assert plan.branch == "large_k"
        assert plan.tau_min == pytest.approx(2.1506, abs=1e-4)
        assert plan.N == 20
        assert plan.alpha == pytest.approx(0.2 * 0.01 * 2.2 ** -40, rel=1e-12)

    def test_noise_free_floor(self, kite_radii):
        plan = select_parameters(1.0, 0.0, 5.0, kite_radii, 2.2)
        assert plan.branch == "small_k"
        assert plan.delta_eff == 1e-16
        assert plan.N == 19

    def test_branch_boundary(self, kite_radii):
        assert select_parameters(1.0, 0.01, 5.0, kite_radii, 2.2).branch == "small_k"
        assert select_parameters(1.0 + 1e-9, 0.01, 5.0, kite_radii, 2.2).branch == "large_k"

    def test_validation(self, kite_radii):
        with pytest.raises(ValidationError) as err:
            select_parameters(1.0, 0.01, 5.0, kite_radii, 2.0)
        assert err.value.code == "tau0_too_small"
        with pytest.raises(ValidationError):
            select_parameters(1.0, 1.0, 5.0, kite_radii, 2.2)
        with pytest.raises(ValidationError):
            select_parameters(1.0, -0.1, 5.0, kite_radii, 2.2)
        with pytest.raises(ValidationError):
            select_parameters(1.0, 0.01, 1.0, kite_radii, 2.2)
        with pytest.raises(ValidationError):
            select_parameters(0.0, 0.01, 5.0, kite_radii, 2.2)

    def test_alpha_out_of_float_range_is_zero(self, kite_radii):
        # tau0^(2N) overflows on the large-k branch and tau0^(-2N)
        # underflows on the small-k one; either gives alpha = 0
        plan = select_parameters(5.0, 0.01, 5.0, kite_radii, 1e10)
        assert (plan.branch, plan.N, plan.alpha) == ("large_k", 20, 0.0)
        plan = select_parameters(1.0, 0.01, 5.0, kite_radii, 1e30)
        assert (plan.branch, plan.alpha) == ("small_k", 0.0)
        # a finite alpha is the formula's, bit for bit
        plan = select_parameters(5.0, 0.01, 5.0, kite_radii, 1e7)
        assert plan.alpha == 0.01 / (5.0 * 1e7 ** 40) > 0.0

    def test_cap_on_disc_like_domain(self):
        # tau_min = 1 sends the order formula to infinity
        radii = compute_radii(circle_curve(1.0))
        with pytest.raises(ValidationError) as err:
            select_parameters(5.0, 0.01, 5.0, radii, 1.02)
        assert err.value.code == "order_cap_reached"

    def test_order_cap_edge(self, kite_radii):
        # eta ln ln 1e16 = 126.95 selects N = 127 = N_MAX - 1; 127.31 would
        # select N_MAX and is rejected, in the wording the CLI reports
        assert select_parameters(1.0, 1e-16, 35.2, kite_radii, 2.2).N == 127
        with pytest.raises(ValidationError) as err:
            select_parameters(1.0, 1e-16, 35.3, kite_radii, 2.2)
        assert err.value.code == "order_cap_reached"
        assert err.value.message == (
            "k=1.0, delta=1e-16 selects N >= N_MAX=128, "
            "beyond what the basis can resolve")

    def test_floor_at_zero_for_weak_noise_decay(self, kite_radii, caplog):
        # delta close to 1 drives the formula negative; clamped to N=0
        with caplog.at_level(logging.WARNING, logger="fbm.tikhonov"):
            plan = select_parameters(0.5, 0.9, 5.0, kite_radii, 2.2)
        assert plan.N == 0
        assert plan.alpha == pytest.approx(0.25 * 0.9)


class TestMuMinBound:
    def test_halving_ratio(self):
        assert mu_min_bound(1.0, 1.0, 2.0, 0, 1.0) == pytest.approx(0.5)
        v0 = mu_min_bound(1.0, 1.0, 2.0, 3, 1.0)
        v1 = mu_min_bound(1.0, 1.0, 2.0, 4, 1.0)
        assert v1 == pytest.approx(0.5 * v0)

    def test_large_k_prefactor(self):
        # min(1,k) = 1 and 1 + sqrt(4) = 3
        assert mu_min_bound(4.0, 1.0, 2.0, 0, 1.0) * 3.0 == pytest.approx(1.0)
        assert mu_min_bound(4.0, 0.999999, 1.0, 0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_radii_validation(self):
        with pytest.raises(ValidationError):
            mu_min_bound(1.0, 2.0, 1.0, 3, 1.0)


class TestDecayStudy:
    def test_single_order_has_column_norm(self, kite, kite_radii):
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, [0])
        prob = make_problem(kite_radii, 1.0, 2.2, 0)
        rule = build_quadrature(kite, default_node_count(0))
        op = assemble_operator(prob, rule)
        assert study.slope is None
        assert study.mu_min[0] == pytest.approx(
            np.linalg.norm(op[:, 0]), rel=1e-12)

    def test_circle_decay_near_log_tau0(self):
        # near-diagonal structure on the circle: slope within 15% of -ln 2
        curve = circle_curve(1.0)
        radii = compute_radii(curve)
        study = svd_decay_study(curve, radii, 1.0, 2.0, range(4, 25, 2))
        assert study.slope == pytest.approx(-math.log(2.0), rel=0.15)

    def test_slope_fitted_above_the_rounding_floor(self, kite, kite_radii):
        # svd --N 4..80:2 at k = 1: mu_min of the last 13 orders sits near
        # 1e-14, on the floor; the slope is fitted over the 26 above
        # 100 eps c_max, c_max the operator's largest column norm
        orders = range(4, 81, 2)
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, orders)
        rule = build_quadrature(kite, study.node_count)
        operator = assemble_operator(make_problem(kite_radii, 1.0, 2.2, 80),
                                     rule)
        floor = 100 * np.finfo(float).eps * np.linalg.norm(operator,
                                                           axis=0).max()
        assert np.count_nonzero(study.mu_min > floor) == 26
        logs = np.log(study.mu_min)
        x = study.orders.astype(float)
        assert study.slope == float(np.polyfit(x[:26], logs[:26], 1)[0])
        assert study.slope == pytest.approx(-0.550, abs=1e-3)
        # every order, the floor's included, would read -0.484
        assert np.polyfit(x, logs, 1)[0] == pytest.approx(-0.484, abs=1e-3)
        # orders all on the floor leave no slope
        assert svd_decay_study(kite, kite_radii, 1.0, 2.2,
                               [78, 80]).slope is None

    @pytest.mark.parametrize("spec, tau0, orders", [
        ("kite", 2.2, range(4, 25)), ("ellipse:1.5,1", 1.53, range(4, 81, 2))])
    def test_slope_over_every_order_above_the_floor(self, spec, tau0, orders):
        # no order reaches the floor: the slope is the fit over all of them
        # (the ellipse at its "auto" tau0, 1.02 tau_min rounded up)
        curve = named_curve(spec)
        radii = compute_radii(curve)
        study = svd_decay_study(curve, radii, 1.0, tau0, orders)
        assert study.slope == float(np.polyfit(
            study.orders.astype(float), np.log(study.mu_min), 1)[0])

    def test_values_only_svd_matches_full_svd(self, kite, kite_radii):
        # the study takes singular values without vectors, which LAPACK
        # rounds differently; the two agree to rounding of mu_max
        orders = range(4, 41, 4)
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, orders)
        for n_exp, mu in zip(orders, study.mu_min):
            prob = make_problem(kite_radii, 1.0, 2.2, n_exp)
            rule = build_quadrature(kite, default_node_count(n_exp))
            system = svd(assemble_operator(prob, rule))
            assert abs(mu - system.mu_min) <= 1e-13 * system.mu_max

    def test_leading_block_matches_order_by_order(self, kite, kite_radii):
        # on one shared rule, mu_min(N) read from R's leading block is the
        # mu_min of the order-N operator assembled on its own: in steps of
        # two orders, of one, and in jumps that fill the block
        node_count = default_node_count(80)
        rule = build_quadrature(kite, node_count)
        for orders in (range(4, 81, 2), range(0, 41), [4, 40, 80]):
            study = svd_decay_study(kite, kite_radii, 1.0, 2.2, orders,
                                    node_count=node_count)
            assert study.node_count == node_count
            for n_exp, mu in zip(orders, study.mu_min):
                prob = make_problem(kite_radii, 1.0, 2.2, n_exp)
                system = svd(assemble_operator(prob, rule))
                assert abs(mu - system.mu_min) <= 1e-13 * system.mu_max

    def test_leading_block_keeps_inherited_minimum(self):
        # the minimum sits in column 2; every later block inherits it,
        # though no column added after it carries it
        r = np.eye(40, dtype=complex)
        r[2, 2] = 1e-6
        mus = _leading_block_mu_min(r, range(1, 41))
        assert np.allclose(mus[:2], 1.0, rtol=1e-14, atol=0.0)
        assert np.allclose(mus[2:], 1e-6, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("step", [1, 4])
    def test_leading_block_random_triangular_matches_svd(self, step):
        # the R of a random complex matrix whose columns shrink by half
        # each, as the operator's do (|r_jj| ~ 2^-j, down to ~1e-12)
        rng = np.random.default_rng(19)
        size = 41
        a = rng.standard_normal((60, size)) + 1j * rng.standard_normal((60, size))
        r = np.linalg.qr(a * 0.5 ** np.arange(size), mode="r")
        sizes = range(1, size + 1, step)
        mus = _leading_block_mu_min(r, sizes)
        for s, mu in zip(sizes, mus):
            sigma = np.linalg.svd(r[:s, :s], compute_uv=False)
            assert abs(mu - sigma[-1]) <= 1e-13 * sigma[0]
        assert np.all(np.diff(mus) <= 0.0)

    @pytest.mark.parametrize("diagonal", [0.0, 1e-200])
    def test_leading_block_singular_r_is_svd_failed(self, diagonal):
        # an exact zero stops the inversion, a tiny one overflows G
        r = np.triu(np.ones((6, 6), dtype=complex))
        r[3, 3] = diagonal
        with pytest.raises(NumericalError) as err:
            _leading_block_mu_min(r, [1, 3, 5])
        assert err.value.code == "svd_failed"

    @pytest.mark.parametrize("k, N, tau0", [(1.0, 10, 1.5), (5.0, 20, 1.5)])
    def test_disc_leading_block_minimum_in_closed_form(self, k, N, tau0):
        # the disc's columns are orthogonal, so mu_min(m) is the smallest
        # closed-form sigma_n over |n| <= m; it also clears the paper's
        # lower-bound shape with constant 1 (smallest ratio measured: 4.4
        # at k = 1, 8.4 at k = 5)
        problem, rule, _, sigma = _disc(k, N, tau0)
        curve = circle_curve(1.0)
        study = svd_decay_study(curve, compute_radii(curve), k, tau0,
                                range(N + 1), node_count=rule.size)
        exact = np.array([sigma[N - m:N + m + 1].min() for m in range(N + 1)])
        assert np.max(np.abs(study.mu_min - exact) / exact) <= 1e-13
        bound = [mu_min_bound(k, problem.r_in, problem.r_ex, m, 1.0)
                 for m in range(N + 1)]
        assert np.all(study.mu_min >= bound)

    def test_monotone_decrease(self, kite, kite_radii):
        study = svd_decay_study(kite, kite_radii, 1.0, 2.2, range(4, 13, 2))
        assert np.all(np.diff(study.mu_min) <= 1e-12)

    def test_positive_at_large_k(self, kite, kite_radii):
        study = svd_decay_study(kite, kite_radii, 5.0, 2.2, [4, 8, 12])
        assert np.all(study.mu_min > 0.0)

    def test_negative_order_rejected(self, kite, kite_radii):
        # a leading block of negative size would be read silently
        with pytest.raises(ValidationError) as err:
            svd_decay_study(kite, kite_radii, 1.0, 2.2, [-2, 4])
        assert err.value.code == "bad_truncation"

    def test_input_validation(self, kite, kite_radii):
        with pytest.raises(ValidationError):
            svd_decay_study(kite, kite_radii, 1.0, 2.2, [])
        with pytest.raises(ValidationError):
            svd_decay_study(kite, kite_radii, 1.0, 2.2, [4, 4, 6])
